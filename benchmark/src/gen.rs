//! Seed-determined inputs: the two lakes, their query tables and the request
//! bodies. The program under test only ever sees what this module generates,
//! and the same seed always generates the same bytes.
//!
//! Both lakes follow the ideas of `joinmi_synth::opendata` — string join keys
//! from a Zipf-skewed shared universe, partial overlap between the key
//! domains of different tables, value columns whose dependence on a hidden
//! per-key attribute ranges from none to deterministic — but every row is a
//! pure function of `(seed, table, row index)`, so any row range of any table
//! can be regenerated on its own. `lake_refresh` relies on that: its appended
//! chunks and its final from-scratch re-ingest are slices of the same stream.

use joinmi_hash::SplitMix64;
use joinmi_synth::rng::zipf_cdf;
use joinmi_table::{Column, Table};

/// Columns planted per topic; `recall_at_10` is measured against these.
pub const PLANTED: usize = 10;

/// A small deterministic generator over `SplitMix64`.
#[derive(Debug, Clone)]
pub struct Rng(SplitMix64);

impl Rng {
    /// A generator for stream `stream`, item `index` of run seed `seed`.
    #[must_use]
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Self {
        Self(SplitMix64::new(SplitMix64::derive_seed(
            SplitMix64::derive_seed(seed, stream),
            index,
        )))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.next_unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// One rank from a cumulative distribution.
    pub fn rank(&mut self, cdf: &[f64]) -> usize {
        let u = self.unit();
        cdf.partition_point(|p| *p < u).min(cdf.len() - 1)
    }
}

// Stream identifiers: every independent random choice draws from its own.
const STREAM_PLAN: u64 = 1;
const STREAM_ROWS: u64 = 2;
const STREAM_QUERY: u64 = 3;
const STREAM_LATENT: u64 = 4;
const STREAM_WIDE: u64 = 5;

/// The hidden attribute of `key` under `topic`, in `[0, 100)`. Columns and
/// query targets that depend on the same topic are related through it.
#[must_use]
pub fn latent(seed: u64, topic: usize, key: usize) -> f64 {
    Rng::for_item(seed, STREAM_LATENT, ((topic as u64) << 32) | key as u64).unit() * 100.0
}

/// Bytes of user data in a table: 8 per numeric cell, UTF-8 length per
/// string cell (the denominator of `stored_bytes_per_input_byte`).
#[must_use]
pub fn cell_bytes(table: &Table) -> u64 {
    table
        .columns()
        .iter()
        .map(|column| match column {
            Column::Str(values) => values
                .iter()
                .map(|v| v.as_ref().map_or(0, |s| s.len() as u64))
                .sum::<u64>(),
            other => 8 * (other.len() - other.null_count()) as u64,
        })
        .sum()
}

/// Shape of a topic lake (`open_lake`, and the smaller `refresh_lake`).
#[derive(Debug, Clone, Copy)]
pub struct LakeSpec {
    /// Table-name prefix.
    pub name: &'static str,
    /// Number of tables.
    pub tables: usize,
    /// Value columns per table (besides the `key` column).
    pub value_columns: usize,
    /// Base rows per table.
    pub rows: usize,
    /// Size of the shared key universe.
    pub key_universe: usize,
    /// Topics: each owns a region of the key universe, `tables / topics`
    /// tables and [`PLANTED`] strong columns.
    pub topics: usize,
    /// Zipf exponent of the key frequencies inside a table or query.
    pub key_skew: f64,
    /// Rows of a query table.
    pub query_rows: usize,
}

/// How one value column is generated.
#[derive(Debug, Clone, Copy)]
pub struct ColumnPlan {
    /// Share of the value explained by the topic's latent attribute.
    pub strength: f64,
    /// String categories instead of floats.
    pub categorical: bool,
    /// Per-column affine transform, so planted columns are not copies.
    pub scale: f64,
}

/// A lake's fixed structure, drawn once from the seed.
#[derive(Debug, Clone)]
pub struct LakePlan {
    /// The shape this plan was drawn for.
    pub spec: LakeSpec,
    /// Run seed.
    pub seed: u64,
    /// `columns[t][c]`.
    pub columns: Vec<Vec<ColumnPlan>>,
    /// First key of each table's window.
    pub window_start: Vec<usize>,
    /// `planted[topic]` = the `(table, column)` names recall is scored on.
    pub planted: Vec<Vec<(String, String)>>,
    cdf: Vec<f64>,
}

const CATEGORIES: usize = 40;

impl LakeSpec {
    /// Keys per topic region. Regions start `key_universe / topics` apart and
    /// are half as wide again, so neighbouring topics overlap partially.
    #[must_use]
    pub fn window(&self) -> usize {
        self.key_universe / self.topics * 3 / 2
    }

    /// Topic of table `t`.
    #[must_use]
    pub fn topic_of(&self, table: usize) -> usize {
        table % self.topics
    }

    /// Table name.
    #[must_use]
    pub fn table_name(&self, table: usize) -> String {
        format!("{}_{table:03}", self.name)
    }

    /// Draws the lake's structure.
    #[must_use]
    pub fn plan(self, seed: u64) -> LakePlan {
        let stride = self.key_universe / self.topics;
        let mut columns = Vec::with_capacity(self.tables);
        let mut window_start = Vec::with_capacity(self.tables);
        for t in 0..self.tables {
            let mut rng = Rng::for_item(seed, STREAM_PLAN, t as u64);
            // Each table's window is its topic's region shifted by up to a
            // quarter stride either way, so pairwise overlap varies.
            let jitter = rng.below(stride / 2 + 1);
            let start = self.topic_of(t) * stride + self.key_universe + jitter - stride / 4;
            window_start.push(start % self.key_universe);
            columns.push(
                (0..self.value_columns)
                    .map(|c| ColumnPlan {
                        // Distractors: none to moderate dependence.
                        strength: [0.0, 0.15, 0.3, 0.45][rng.below(4)],
                        categorical: c % 3 == 2,
                        scale: 0.5 + rng.unit(),
                    })
                    .collect::<Vec<_>>(),
            );
        }
        // Plant PLANTED strong columns per topic among that topic's tables.
        let mut planted = Vec::with_capacity(self.topics);
        for topic in 0..self.topics {
            let mut slots: Vec<(usize, usize)> = (0..self.tables)
                .filter(|t| self.topic_of(*t) == topic)
                .flat_map(|t| (0..self.value_columns).map(move |c| (t, c)))
                .collect();
            let mut rng = Rng::for_item(seed, STREAM_PLAN, (1 << 40) | topic as u64);
            let mut chosen = Vec::with_capacity(PLANTED);
            while chosen.len() < PLANTED.min(slots.len()) {
                let (t, c) = slots.swap_remove(rng.below(slots.len()));
                columns[t][c].strength = 1.0;
                chosen.push((self.table_name(t), column_name(c)));
            }
            planted.push(chosen);
        }
        LakePlan {
            spec: self,
            seed,
            columns,
            window_start,
            planted,
            cdf: zipf_cdf(self.window(), self.key_skew),
        }
    }
}

/// Name of value column `c`.
#[must_use]
pub fn column_name(c: usize) -> String {
    format!("v{c}")
}

fn key_name(key: usize) -> String {
    format!("k{key:06}")
}

impl LakePlan {
    /// Rows `range` of table `t`: a pure function of `(seed, t, row)`.
    #[must_use]
    pub fn table_rows(&self, t: usize, range: std::ops::Range<usize>) -> Table {
        let spec = &self.spec;
        let topic = spec.topic_of(t);
        let n = range.len();
        let mut keys = Vec::with_capacity(n);
        let mut numeric: Vec<Vec<f64>> = vec![Vec::with_capacity(n); spec.value_columns];
        let mut strings: Vec<Vec<String>> = vec![Vec::with_capacity(n); spec.value_columns];
        for row in range {
            let mut rng = Rng::for_item(self.seed, STREAM_ROWS, ((t as u64) << 32) | row as u64);
            let key = (self.window_start[t] + rng.rank(&self.cdf)) % spec.key_universe;
            keys.push(key_name(key));
            let signal = latent(self.seed, topic, key);
            for (c, plan) in self.columns[t].iter().enumerate() {
                // Planted columns keep 2 % row noise so they are near-, not
                // exactly, functional.
                let strength = plan.strength.min(0.98);
                let mixed = strength * signal + (1.0 - strength) * rng.unit() * 100.0;
                if plan.categorical {
                    let bucket = ((mixed / 100.0) * CATEGORIES as f64) as usize;
                    strings[c].push(format!("c{:03}", bucket.min(CATEGORIES - 1)));
                } else {
                    numeric[c].push(mixed * plan.scale);
                }
            }
        }
        let mut builder = Table::builder(spec.table_name(t)).push_str_column("key", keys);
        for (c, plan) in self.columns[t].iter().enumerate() {
            builder = if plan.categorical {
                builder.push_str_column(&column_name(c), std::mem::take(&mut strings[c]))
            } else {
                builder.push_float_column(&column_name(c), std::mem::take(&mut numeric[c]))
            };
        }
        builder.build().expect("generated columns are aligned")
    }

    /// Base rows of every table.
    #[must_use]
    pub fn base_tables(&self) -> Vec<Table> {
        (0..self.spec.tables)
            .map(|t| self.table_rows(t, 0..self.spec.rows))
            .collect()
    }

    /// The query of `op`: its topic and `(key, target)` rows, as many as the
    /// lake's `query_rows`.
    #[must_use]
    pub fn query_rows(&self, op: u64) -> (usize, Vec<(String, f64)>) {
        self.query_rows_of(op, self.spec.query_rows)
    }

    /// Topic the query of `op` asks about.
    #[must_use]
    pub fn topic_of_op(&self, op: u64) -> usize {
        (op % self.spec.topics as u64) as usize
    }

    /// The query of `op` with `count` rows. Two different `op`s never produce
    /// the same table.
    #[must_use]
    pub fn query_rows_of(&self, op: u64, count: usize) -> (usize, Vec<(String, f64)>) {
        let spec = &self.spec;
        let mut rng = Rng::for_item(self.seed, STREAM_QUERY, op);
        let topic = self.topic_of_op(op);
        let stride = spec.key_universe / spec.topics;
        let start = topic * stride + rng.below(stride / 4 + 1);
        let rows = (0..count)
            .map(|_| {
                let key = (start + rng.rank(&self.cdf)) % spec.key_universe;
                let target = 0.97 * latent(self.seed, topic, key) + 3.0 * rng.unit();
                (key_name(key), target)
            })
            .collect();
        (topic, rows)
    }
}

/// The query rows as the in-memory table `QueryRequest::to_table` builds.
#[must_use]
pub fn query_table(rows: &[(String, f64)]) -> Table {
    Table::builder("query")
        .push_str_column("key", rows.iter().map(|(k, _)| k.as_str()))
        .push_float_column("target", rows.iter().map(|(_, t)| *t))
        .build()
        .expect("query columns are aligned")
}

/// The `POST /v1/query` body for `rows`. Everything not spelled out is left
/// to the daemon's defaults, which match `RepositoryConfig::default()`.
#[must_use]
pub fn request_body(rows: &[(String, f64)], top_k: usize, min_join_size: usize) -> String {
    use std::fmt::Write as _;
    let mut body = String::with_capacity(rows.len() * 32 + 128);
    body.push_str(r#"{"key_column":"key","target_column":"target","rows":["#);
    for (i, (key, target)) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // `{:?}` always prints a fraction or exponent, so every target parses
        // as a JSON float and the column stays one type.
        let _ = write!(body, "[\"{key}\",{target:?}]");
    }
    let _ = write!(
        body,
        r#"],"top_k":{top_k},"min_join_size":{min_join_size}}}"#
    );
    body
}

/// Shape of `wide_lake`: three strata of candidate columns around one key
/// universe and a high-entropy categorical target.
#[derive(Debug, Clone, Copy)]
pub struct WideSpec {
    /// Keys in the universe.
    pub key_universe: usize,
    /// Tables of eight full-overlap columns (the first two carry the planted
    /// strong columns, the rest are the middle band that must be scored).
    pub full_tables: usize,
    /// Rows per full table.
    pub full_rows: usize,
    /// Small tables sharing only a handful of keys with the universe: the
    /// weak tail the cheap bounds reject.
    pub tail_tables: usize,
    /// Rows of a query table.
    pub query_rows: usize,
}

/// Target categories of the wide lake (`ln 128 ≈ 4.85` nats of entropy, so
/// the strong columns' credible lower bounds clear the tail's cheap bound).
const WIDE_TARGETS: usize = 128;
/// Value columns of a full table.
pub const WIDE_FULL_COLUMNS: usize = 8;
/// Value columns of a tail table (numeric, so none is a key candidate).
pub const WIDE_TAIL_COLUMNS: usize = 6;
/// Private keys of a tail table.
const WIDE_TAIL_PRIVATE: usize = 30;

impl WideSpec {
    /// Candidate columns the lake yields.
    #[must_use]
    pub fn candidates(&self) -> usize {
        self.full_tables * WIDE_FULL_COLUMNS + self.tail_tables * WIDE_TAIL_COLUMNS
    }

    fn target_class(&self, seed: u64, key: usize) -> usize {
        (latent(seed, 0, key) / 100.0 * WIDE_TARGETS as f64) as usize % WIDE_TARGETS
    }

    /// The planted strong columns: five in each of the first two tables.
    #[must_use]
    pub fn planted(&self) -> Vec<(String, String)> {
        (0..2)
            .flat_map(|t| (0..PLANTED / 2).map(move |c| (format!("full_{t:03}"), column_name(c))))
            .collect()
    }

    /// Every table of the lake, strong and middle strata first.
    #[must_use]
    pub fn tables(&self, seed: u64) -> Vec<Table> {
        let mut tables = Vec::with_capacity(self.full_tables + self.tail_tables);
        for t in 0..self.full_tables {
            tables.push(self.full_table(seed, t));
        }
        for t in 0..self.tail_tables {
            tables.push(self.tail_table(seed, t));
        }
        tables
    }

    fn full_table(&self, seed: u64, t: usize) -> Table {
        let mut rng = Rng::for_item(seed, STREAM_WIDE, t as u64);
        let n = self.full_rows;
        let mut keys = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            let key = rng.below(self.key_universe);
            keys.push(format!("w{key:05}"));
            classes.push(self.target_class(seed, key));
        }
        let mut builder = Table::builder(format!("full_{t:03}")).push_str_column("key", keys);
        for c in 0..WIDE_FULL_COLUMNS {
            let strong = t < 2 && c < PLANTED / 2;
            // Middle-band columns see the target class through 2–16 coarse
            // buckets and 20 % noise: informative, but clearly below the
            // strong columns.
            let buckets = if strong {
                WIDE_TARGETS
            } else {
                2 << rng.below(4)
            };
            let noise = if strong { 0.02 } else { 0.2 };
            let coded: Vec<usize> = classes
                .iter()
                .map(|&class| {
                    if rng.unit() < noise {
                        rng.below(buckets)
                    } else {
                        class * buckets / WIDE_TARGETS
                    }
                })
                .collect();
            builder = if c == WIDE_FULL_COLUMNS - 1 {
                // One numeric column per table keeps the discrete–continuous
                // estimator in the mix; the planted columns are all strings,
                // so the top-k lower bound is the MLE's.
                builder.push_float_column(
                    &column_name(c),
                    coded.iter().map(|&b| b as f64 + 0.25 * (t as f64)),
                )
            } else {
                builder.push_str_column(
                    &column_name(c),
                    coded.iter().map(|b| format!("b{t}-{c}-{b}")),
                )
            };
        }
        builder.build().expect("generated columns are aligned")
    }

    fn tail_table(&self, seed: u64, t: usize) -> Table {
        let mut rng = Rng::for_item(seed, STREAM_WIDE, (1 << 40) | t as u64);
        // 3–14 keys shared with the universe, the rest private to the table:
        // the fewest give a join-size bound below `min_join_size` (pruned),
        // the most a bound whose cheap MI ceiling stays under the strong
        // columns' lower bounds (early-stopped).
        let shared = 3 + t % 12;
        let mut keys: Vec<String> = (0..shared)
            .map(|_| format!("w{:05}", rng.below(self.key_universe)))
            .collect();
        keys.extend((0..WIDE_TAIL_PRIVATE).map(|j| format!("p{t:04}-{j:02}")));
        let n = keys.len();
        let mut builder = Table::builder(format!("tail_{t:04}")).push_str_column("key", keys);
        for c in 0..WIDE_TAIL_COLUMNS {
            builder =
                builder.push_float_column(&column_name(c), (0..n).map(|_| rng.unit() * 100.0));
        }
        builder.build().expect("generated columns are aligned")
    }

    /// The query table of `op`: near-uniform keys (so the join-size bound is
    /// tight) and the categorical target.
    #[must_use]
    pub fn query_table(&self, seed: u64, op: u64) -> Table {
        let mut rng = Rng::for_item(seed, STREAM_QUERY, (1 << 40) | op);
        let mut keys = Vec::with_capacity(self.query_rows);
        let mut targets = Vec::with_capacity(self.query_rows);
        for _ in 0..self.query_rows {
            let key = rng.below(self.key_universe);
            let class = if rng.unit() < 0.02 {
                rng.below(WIDE_TARGETS)
            } else {
                self.target_class(seed, key)
            };
            keys.push(format!("w{key:05}"));
            targets.push(format!("t{class:03}"));
        }
        Table::builder("query")
            .push_str_column("key", keys)
            .push_str_column("target", targets)
            .build()
            .expect("query columns are aligned")
    }
}
