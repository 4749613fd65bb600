//! The serving wire protocol: typed request/response structs and their JSON
//! encodings. The full specification (schemas, error codes, exactness
//! guarantees) lives in `docs/SERVING.md`; this module is its implementation.

use std::collections::BTreeMap;

use joinmi_discovery::{RankedCandidate, RelationshipQuery};
use joinmi_estimators::DEFAULT_K;
use joinmi_hash::murmur3_x64_128;
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_table::Table;

use crate::json::{obj, Json};

/// Salt for query fingerprints, distinct from every other hash use in the
/// workspace.
const FINGERPRINT_SEED: u64 = 0x6A6D_6931_5155_5259; // "jmi1QURY"

/// A parsed `POST /v1/query` request.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Join-key column name of the query rows (always strings on the wire).
    pub key_column: String,
    /// Target column name of the query rows.
    pub target_column: String,
    /// The `(key, target)` rows of the query table.
    pub rows: Vec<(String, TargetValue)>,
    /// Maximum number of merged results (`0` = unlimited).
    pub top_k: usize,
    /// Minimum sketch-join size per candidate.
    pub min_join_size: usize,
    /// Minimum sampled-key overlap for the joinability pre-filter.
    pub min_key_overlap: usize,
    /// Query-side sketch size (must match the shards').
    pub sketch_size: usize,
    /// Query-side sketch seed (must match the shards').
    pub sketch_seed: u64,
    /// Neighbour count for the KSG-family estimators (optional on the wire;
    /// defaults to the library's `DEFAULT_K`).
    pub k: usize,
    /// Whether the caller accepts a partial ranking when some shards are
    /// quarantined (`"partial": true` + `degraded_shards` in the response).
    /// Defaults to `false`: with a degraded shard the query fails with a
    /// typed 500 rather than silently returning fewer candidates.
    ///
    /// This is a delivery preference, not part of the query's identity — it
    /// is deliberately excluded from [`QueryRequest::canonical_json`] and the
    /// fingerprint, because only *complete* rankings are ever cached and a
    /// complete ranking is the same answer under either setting.
    pub allow_partial: bool,
    /// Two-sided credible-interval level in `(0, 1)`; `Some` switches the
    /// scoring engine to interval mode (`mi_var`/`ci_lo`/`ci_hi` on every
    /// result, early-terminating top-k). Unlike `allow_partial` this IS part
    /// of the query's identity — interval results carry fields point results
    /// do not — so it participates in [`QueryRequest::canonical_json`] and
    /// the fingerprint, and cached point and interval rankings never alias.
    pub confidence: Option<f64>,
}

/// A target cell: JSON integers become `Int` columns, JSON floats `Float`
/// columns. Rust's shortest-round-trip float formatting makes the float path
/// exact, so either way the daemon rebuilds the caller's column bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetValue {
    /// An integer target.
    Int(i64),
    /// A floating-point target.
    Float(f64),
}

/// A protocol-level request rejection (HTTP 400).
#[derive(Debug, Clone)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BadRequest {}

fn bad(message: impl Into<String>) -> BadRequest {
    BadRequest(message.into())
}

/// Upper bound on rows per query; guards the daemon against being handed a
/// whole table scan as a "query".
pub const MAX_QUERY_ROWS: usize = 1_000_000;

impl QueryRequest {
    /// Parses and validates a request body.
    pub fn from_json(body: &str) -> Result<Self, BadRequest> {
        let doc = Json::parse(body).map_err(|e| bad(e.to_string()))?;
        let Json::Obj(_) = &doc else {
            return Err(bad("request body must be a JSON object"));
        };

        let field_str = |key: &str| -> Result<String, BadRequest> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| bad(format!("missing or non-string field '{key}'")))
        };
        let field_usize = |key: &str, default: usize| -> Result<usize, BadRequest> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_i64()
                    .and_then(|i| usize::try_from(i).ok())
                    .ok_or_else(|| bad(format!("field '{key}' must be a non-negative integer"))),
            }
        };
        let field_bool = |key: &str| -> Result<bool, BadRequest> {
            match doc.get(key) {
                None => Ok(false),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(bad(format!("field '{key}' must be a boolean"))),
            }
        };

        let key_column = field_str("key_column")?;
        let target_column = field_str("target_column")?;
        if key_column == target_column {
            return Err(bad("key_column and target_column must differ"));
        }

        // Shards serve TUPSK sketches only: the field may be absent or name
        // that one kind, in any case.
        if let Some(v) = doc.get("sketch_kind") {
            let tupsk = SketchKind::Tupsk.name();
            if !v
                .as_str()
                .is_some_and(|name| name.eq_ignore_ascii_case(tupsk))
            {
                return Err(bad(format!(
                    "field 'sketch_kind' must be \"{tupsk}\", the one kind the shards serve"
                )));
            }
        }
        let sketch_seed = match doc.get("sketch_seed") {
            None => 0,
            Some(v) => v
                .as_i64()
                .map(|i| i as u64)
                .ok_or_else(|| bad("field 'sketch_seed' must be an integer"))?,
        };

        let rows_json = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing or non-array field 'rows'"))?;
        if rows_json.is_empty() {
            return Err(bad("'rows' must not be empty"));
        }
        if rows_json.len() > MAX_QUERY_ROWS {
            return Err(bad(format!(
                "'rows' holds {} entries, more than the {MAX_QUERY_ROWS} limit",
                rows_json.len()
            )));
        }
        let mut rows = Vec::with_capacity(rows_json.len());
        let mut saw_float = false;
        let mut saw_int = false;
        for (i, row) in rows_json.iter().enumerate() {
            let pair = row
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad(format!("row {i} must be a [key, target] pair")))?;
            let key = pair[0]
                .as_str()
                .ok_or_else(|| bad(format!("row {i}: key must be a string")))?;
            let target = match &pair[1] {
                Json::Int(v) => {
                    saw_int = true;
                    TargetValue::Int(*v)
                }
                Json::Float(v) => {
                    saw_float = true;
                    TargetValue::Float(*v)
                }
                _ => return Err(bad(format!("row {i}: target must be a number"))),
            };
            if saw_int && saw_float {
                return Err(bad(
                    "rows mix integer and float targets; a column has one type — \
                     send every target as a float (with a decimal point) instead",
                ));
            }
            rows.push((key.to_owned(), target));
        }

        let k = field_usize("k", DEFAULT_K)?;
        if k == 0 {
            return Err(bad("field 'k' must be at least 1"));
        }

        let confidence = match doc.get("confidence") {
            None => None,
            Some(v) => {
                let level = v
                    .as_f64()
                    .ok_or_else(|| bad("field 'confidence' must be a number"))?;
                if !(level > 0.0 && level < 1.0) {
                    return Err(bad(format!(
                        "field 'confidence' must be strictly between 0 and 1, got {level}"
                    )));
                }
                Some(level)
            }
        };

        Ok(Self {
            key_column,
            target_column,
            rows,
            top_k: field_usize("top_k", 10)?,
            min_join_size: field_usize("min_join_size", 20)?,
            min_key_overlap: field_usize("min_key_overlap", 1)?,
            sketch_size: field_usize("sketch_size", 1024)?,
            sketch_seed,
            k,
            allow_partial: field_bool("allow_partial")?,
            confidence,
        })
    }

    /// Canonical JSON encoding of the request — every query-identity field
    /// explicit, keys sorted. Two requests that mean the same query encode
    /// identically, which is what the result cache fingerprints.
    /// `allow_partial` is excluded (see its field docs): it changes how a
    /// degraded answer is delivered, not what the answer is.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|(key, target)| {
                let t = match target {
                    TargetValue::Int(i) => Json::Int(*i),
                    TargetValue::Float(f) => Json::Float(*f),
                };
                Json::Arr(vec![Json::Str(key.clone()), t])
            })
            .collect();
        let mut doc = obj([
            ("key_column", Json::Str(self.key_column.clone())),
            ("target_column", Json::Str(self.target_column.clone())),
            ("rows", Json::Arr(rows)),
            ("top_k", Json::Int(self.top_k as i64)),
            ("min_join_size", Json::Int(self.min_join_size as i64)),
            ("min_key_overlap", Json::Int(self.min_key_overlap as i64)),
            ("sketch_size", Json::Int(self.sketch_size as i64)),
            ("sketch_seed", Json::Int(self.sketch_seed as i64)),
            ("k", Json::Int(self.k as i64)),
        ]);
        // Interval scoring changes what the results contain, so the level is
        // part of the query's identity; an absent field means point scoring
        // (the canonical spelling — there is no explicit "point" value).
        if let (Json::Obj(map), Some(level)) = (&mut doc, self.confidence) {
            map.insert("confidence".to_owned(), Json::Float(level));
        }
        doc.encode()
    }

    /// 128-bit fingerprint of the canonical encoding, for cache keys.
    #[must_use]
    pub fn fingerprint(&self) -> (u64, u64) {
        murmur3_x64_128(self.canonical_json().as_bytes(), FINGERPRINT_SEED)
    }

    /// Builds the in-memory query table the discovery layer expects.
    pub fn to_table(&self) -> Result<Table, BadRequest> {
        let keys = self.rows.iter().map(|(k, _)| k.clone());
        let builder = Table::builder("query").push_str_column(&self.key_column, keys);
        let builder = match self.rows.first() {
            Some((_, TargetValue::Int(_))) => builder.push_int_column(
                &self.target_column,
                self.rows.iter().map(|(_, t)| match t {
                    TargetValue::Int(i) => *i,
                    TargetValue::Float(_) => unreachable!("mixed targets rejected at parse"),
                }),
            ),
            _ => builder.push_float_column(
                &self.target_column,
                self.rows.iter().map(|(_, t)| match t {
                    TargetValue::Float(f) => *f,
                    TargetValue::Int(i) => *i as f64,
                }),
            ),
        };
        builder.build().map_err(|e| bad(e.to_string()))
    }

    /// Lowers the request into a [`RelationshipQuery`] against one shard.
    pub fn to_query(&self) -> Result<RelationshipQuery, BadRequest> {
        let table = self.to_table()?;
        let mut query = RelationshipQuery::new(table, &self.key_column, &self.target_column)
            .with_top_k(self.top_k)
            .with_min_join_size(self.min_join_size)
            .with_sketch(
                SketchKind::Tupsk,
                SketchConfig::new(self.sketch_size, self.sketch_seed),
            )
            .with_k(self.k);
        if let Some(level) = self.confidence {
            query = query.with_confidence(level);
        }
        query.min_key_overlap = self.min_key_overlap;
        Ok(query)
    }
}

/// One merged result row: a [`RankedCandidate`] plus its shard coordinates.
#[derive(Debug, Clone)]
pub struct ShardedResult {
    /// Index of the owning shard (position in the daemon's shard list).
    pub shard: usize,
    /// Candidate index *within* that shard.
    pub shard_candidate_index: usize,
    /// Global candidate index: shard candidate-count offset + local index.
    /// Equals the single-repository index when tables are partitioned
    /// contiguously across shards in order.
    pub global_candidate_index: usize,
    /// The scored candidate (its `candidate_index` field is shard-local).
    pub candidate: RankedCandidate,
}

impl ShardedResult {
    /// Encodes one result row. Interval-scored results additionally carry
    /// `mi_var`, `ci_lo`, `ci_hi` (plus `ci_lo_bits`/`ci_hi_bits` hex
    /// spellings, the exactness companions of `mi_bits`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let c = &self.candidate;
        let mut doc = obj([
            ("shard", Json::Int(self.shard as i64)),
            (
                "shard_candidate_index",
                Json::Int(self.shard_candidate_index as i64),
            ),
            (
                "candidate_index",
                Json::Int(self.global_candidate_index as i64),
            ),
            ("table", Json::Str(c.table_name.clone())),
            ("key_column", Json::Str(c.key_column.clone())),
            ("feature_column", Json::Str(c.feature_column.clone())),
            ("aggregation", Json::Str(c.aggregation.name().to_owned())),
            ("estimator", Json::Str(c.estimator.name().to_owned())),
            ("mi", Json::Float(c.mi)),
            ("mi_bits", Json::Str(format!("0x{:016x}", c.mi.to_bits()))),
            ("join_size", Json::Int(c.sketch_join_size as i64)),
            ("key_overlap", Json::Int(c.key_overlap as i64)),
        ]);
        if let (Json::Obj(map), Some(iv)) = (&mut doc, &c.interval) {
            map.insert("mi_var".to_owned(), Json::Float(iv.variance));
            map.insert("ci_lo".to_owned(), Json::Float(iv.ci_lo));
            map.insert("ci_hi".to_owned(), Json::Float(iv.ci_hi));
            map.insert(
                "ci_lo_bits".to_owned(),
                Json::Str(format!("0x{:016x}", iv.ci_lo.to_bits())),
            );
            map.insert(
                "ci_hi_bits".to_owned(),
                Json::Str(format!("0x{:016x}", iv.ci_hi.to_bits())),
            );
        }
        doc
    }
}

/// The `POST /v1/query` success payload.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Merged, globally ranked results.
    pub results: Vec<ShardedResult>,
    /// Number of shards the query ran against.
    pub shards_queried: usize,
    /// Snapshot generation the results were computed under.
    pub generation: u64,
    /// Whether the response came from the result cache.
    pub cached: bool,
    /// Whether any shard was skipped; `true` only ever reaches the wire when
    /// the request opted in with `allow_partial`. Partial rankings are never
    /// cached.
    pub partial: bool,
    /// Indices of the shards that did not contribute (quarantined before the
    /// query, or failed while scoring it). Empty when `partial` is `false`.
    pub degraded_shards: Vec<usize>,
}

impl QueryResponse {
    /// Encodes the payload.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj([
            (
                "results",
                Json::Arr(self.results.iter().map(ShardedResult::to_json).collect()),
            ),
            ("shards_queried", Json::Int(self.shards_queried as i64)),
            (
                "generation",
                Json::Str(format!("0x{:016x}", self.generation)),
            ),
            ("cached", Json::Bool(self.cached)),
            ("partial", Json::Bool(self.partial)),
            (
                "degraded_shards",
                Json::Arr(
                    self.degraded_shards
                        .iter()
                        .map(|s| Json::Int(*s as i64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Typed protocol errors, each mapping to one HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// 400 — malformed or invalid request.
    BadRequest(String),
    /// 404 — unknown path.
    NotFound,
    /// 405 — known path, wrong method.
    MethodNotAllowed,
    /// 429 — admission limit reached; retry later.
    Overloaded {
        /// The daemon's in-flight limit that was hit.
        max_inflight: usize,
    },
    /// 504 — the per-query wall-clock budget elapsed.
    Timeout {
        /// The budget that elapsed, in milliseconds.
        timeout_ms: u64,
    },
    /// 500 — the query panicked inside the scoring engine. The worker that
    /// ran it survived (panic isolation) and rebuilt its workspace; the
    /// daemon keeps serving.
    QueryPanicked,
    /// 500 — one or more shards are degraded and the request did not opt in
    /// to a partial ranking with `allow_partial`.
    Degraded {
        /// Indices of the shards that could not contribute.
        shards: Vec<usize>,
    },
    /// 503 — the daemon is draining for shutdown and no longer admits
    /// queries.
    Draining,
    /// 500 — the query failed inside the engine.
    Internal(String),
}

impl ServeError {
    /// The HTTP status line for this error.
    #[must_use]
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            Self::BadRequest(_) => (400, "Bad Request"),
            Self::NotFound => (404, "Not Found"),
            Self::MethodNotAllowed => (405, "Method Not Allowed"),
            Self::Overloaded { .. } => (429, "Too Many Requests"),
            Self::Timeout { .. } => (504, "Gateway Timeout"),
            Self::QueryPanicked | Self::Degraded { .. } | Self::Internal(_) => {
                (500, "Internal Server Error")
            }
            Self::Draining => (503, "Service Unavailable"),
        }
    }

    /// The machine-readable error code carried in the body.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            Self::BadRequest(_) => "bad_request",
            Self::NotFound => "not_found",
            Self::MethodNotAllowed => "method_not_allowed",
            Self::Overloaded { .. } => "overloaded",
            Self::Timeout { .. } => "timeout",
            Self::QueryPanicked => "panic",
            Self::Degraded { .. } => "degraded",
            Self::Draining => "draining",
            Self::Internal(_) => "internal",
        }
    }

    /// Encodes the error payload.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let message = match self {
            Self::BadRequest(m) | Self::Internal(m) => m.clone(),
            Self::NotFound => "unknown path".to_owned(),
            Self::MethodNotAllowed => "method not allowed for this path".to_owned(),
            Self::Overloaded { max_inflight } => {
                format!("query admission limit of {max_inflight} in-flight queries reached")
            }
            Self::Timeout { timeout_ms } => {
                format!("query exceeded its {timeout_ms} ms wall-clock budget")
            }
            Self::QueryPanicked => {
                "the query panicked inside the scoring engine; the worker recovered and \
                 the daemon keeps serving"
                    .to_owned()
            }
            Self::Degraded { shards } => {
                let list: Vec<String> = shards.iter().map(ToString::to_string).collect();
                format!(
                    "shard(s) [{}] are degraded; retry once restored, or resend with \
                     \"allow_partial\": true to accept a partial ranking",
                    list.join(", ")
                )
            }
            Self::Draining => "the daemon is draining for shutdown".to_owned(),
        };
        let mut err = BTreeMap::new();
        err.insert("code".to_owned(), Json::Str(self.code().to_owned()));
        err.insert("message".to_owned(), Json::Str(message));
        obj([("error", Json::Obj(err))])
    }
}

impl From<BadRequest> for ServeError {
    fn from(e: BadRequest) -> Self {
        Self::BadRequest(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_body() -> String {
        r#"{
            "key_column": "zip",
            "target_column": "trips",
            "rows": [["10001", 3], ["10002", 9]]
        }"#
        .to_owned()
    }

    #[test]
    fn minimal_request_gets_documented_defaults() {
        let req = QueryRequest::from_json(&minimal_body()).unwrap();
        assert_eq!(req.top_k, 10);
        assert_eq!(req.min_join_size, 20);
        assert_eq!(req.min_key_overlap, 1);
        assert_eq!(req.sketch_size, 1024);
        assert_eq!(req.sketch_seed, 0);
        assert_eq!(req.k, DEFAULT_K);
        assert_eq!(req.rows.len(), 2);
        assert_eq!(req.rows[0], ("10001".to_owned(), TargetValue::Int(3)));
    }

    #[test]
    fn k_is_optional_threaded_and_fingerprinted() {
        let body = r#"{
            "key_column": "zip", "target_column": "trips",
            "rows": [["10001", 3]], "k": 7
        }"#;
        let req = QueryRequest::from_json(body).unwrap();
        assert_eq!(req.k, 7);
        assert_eq!(req.to_query().unwrap().k, 7);

        // Different k means a different query — the fingerprint must move.
        let default_k = QueryRequest::from_json(
            r#"{"key_column": "zip", "target_column": "trips", "rows": [["10001", 3]]}"#,
        )
        .unwrap();
        assert_ne!(req.fingerprint(), default_k.fingerprint());

        // Explicit default k fingerprints the same as omitting it.
        let explicit = QueryRequest::from_json(
            r#"{"key_column": "zip", "target_column": "trips", "rows": [["10001", 3]], "k": 3}"#,
        )
        .unwrap();
        assert_eq!(explicit.fingerprint(), default_k.fingerprint());

        for bad in [
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1]], "k": 0}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1]], "k": -2}"#,
        ] {
            assert!(QueryRequest::from_json(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_content_sensitive() {
        let a = QueryRequest::from_json(&minimal_body()).unwrap();
        let reordered = r#"{
            "rows": [["10001", 3], ["10002", 9]],
            "target_column": "trips",
            "key_column": "zip",
            "top_k": 10
        }"#;
        let b = QueryRequest::from_json(reordered).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = a.clone();
        c.rows[1].1 = TargetValue::Int(10);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.top_k = 5;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn tables_rebuild_with_exact_types() {
        let req = QueryRequest::from_json(&minimal_body()).unwrap();
        let table = req.to_table().unwrap();
        assert_eq!(table.num_rows(), 2);
        assert_eq!(
            table.value(0, "trips").unwrap(),
            joinmi_table::Value::Int(3)
        );

        let float_body = r#"{
            "key_column": "zip", "target_column": "t",
            "rows": [["a", 1.5], ["b", 0.25]]
        }"#;
        let req = QueryRequest::from_json(float_body).unwrap();
        let table = req.to_table().unwrap();
        assert_eq!(
            table.value(1, "t").unwrap(),
            joinmi_table::Value::Float(0.25)
        );
    }

    #[test]
    fn invalid_requests_are_typed_rejections() {
        for bad in [
            "not json",
            "[]",
            r#"{"key_column": "k", "target_column": "k", "rows": [["a", 1]]}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": []}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1], ["b", 2.5]]}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", "x"]]}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1]], "top_k": -1}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1]], "sketch_kind": "nope"}"#,
        ] {
            assert!(QueryRequest::from_json(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn sketch_kind_names_parse_case_insensitively() {
        let body = |kind: &str| {
            format!(r#"{{"key_column": "k", "target_column": "t", "rows": [["a", 1]]{kind}}}"#)
        };
        let absent = QueryRequest::from_json(&body("")).unwrap();
        for name in ["TUPSK", "tupsk", "TupSK"] {
            let req =
                QueryRequest::from_json(&body(&format!(r#", "sketch_kind": "{name}""#))).unwrap();
            assert_eq!(req.canonical_json(), absent.canonical_json(), "{name}");
        }
        for value in [
            r#""LV2SK""#,
            r#""prisk""#,
            r#""INDSK""#,
            r#""csk""#,
            r#""nope""#,
            "1",
        ] {
            let err = QueryRequest::from_json(&body(&format!(r#", "sketch_kind": {value}"#)))
                .unwrap_err();
            assert!(err.0.contains("TUPSK"), "{value}: {}", err.0);
        }
    }

    #[test]
    fn error_payloads_carry_status_and_code() {
        let e = ServeError::Overloaded { max_inflight: 4 };
        assert_eq!(e.status().0, 429);
        let encoded = e.to_json().encode();
        assert!(encoded.contains("\"code\":\"overloaded\""));
        let e = ServeError::Timeout { timeout_ms: 50 };
        assert_eq!(e.status().0, 504);
        assert!(e.to_json().encode().contains("timeout"));

        let e = ServeError::QueryPanicked;
        assert_eq!(e.status().0, 500);
        assert!(e.to_json().encode().contains("\"code\":\"panic\""));
        let e = ServeError::Degraded { shards: vec![1, 2] };
        assert_eq!(e.status().0, 500);
        let encoded = e.to_json().encode();
        assert!(encoded.contains("\"code\":\"degraded\""));
        assert!(
            encoded.contains("[1, 2]"),
            "message lists the shards: {encoded}"
        );
        assert!(
            encoded.contains("allow_partial"),
            "message names the opt-in"
        );
        let e = ServeError::Draining;
        assert_eq!(e.status().0, 503);
        assert!(e.to_json().encode().contains("\"code\":\"draining\""));
    }

    #[test]
    fn allow_partial_parses_but_does_not_move_the_fingerprint() {
        let strict = QueryRequest::from_json(&minimal_body()).unwrap();
        assert!(!strict.allow_partial, "defaults to strict");

        let body = r#"{
            "key_column": "zip", "target_column": "trips",
            "rows": [["10001", 3], ["10002", 9]], "allow_partial": true
        }"#;
        let partial = QueryRequest::from_json(body).unwrap();
        assert!(partial.allow_partial);
        // A delivery preference, not query identity: cached complete
        // rankings must serve both settings.
        assert_eq!(strict.fingerprint(), partial.fingerprint());

        let bad = r#"{
            "key_column": "zip", "target_column": "trips",
            "rows": [["10001", 3]], "allow_partial": "yes"
        }"#;
        assert!(QueryRequest::from_json(bad).is_err(), "non-bool rejected");
    }

    #[test]
    fn confidence_parses_validates_and_moves_the_fingerprint() {
        let point = QueryRequest::from_json(&minimal_body()).unwrap();
        assert!(point.confidence.is_none(), "defaults to point scoring");

        let body = r#"{
            "key_column": "zip", "target_column": "trips",
            "rows": [["10001", 3], ["10002", 9]], "confidence": 0.9
        }"#;
        let interval = QueryRequest::from_json(body).unwrap();
        assert_eq!(interval.confidence, Some(0.9));
        // Unlike allow_partial, interval scoring IS query identity: point
        // and interval results must never share a cache slot.
        assert_ne!(point.fingerprint(), interval.fingerprint());
        assert!(matches!(
            interval.to_query().unwrap().policy,
            joinmi_discovery::ScoringPolicy::Interval { level } if level == 0.9
        ));
        assert!(matches!(
            point.to_query().unwrap().policy,
            joinmi_discovery::ScoringPolicy::Point
        ));

        for bad in [
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1]], "confidence": 0.0}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1]], "confidence": 1.0}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1]], "confidence": -0.5}"#,
            r#"{"key_column": "k", "target_column": "t", "rows": [["a", 1]], "confidence": "high"}"#,
        ] {
            assert!(QueryRequest::from_json(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn responses_carry_partial_and_degraded_shards() {
        let full = QueryResponse {
            results: Vec::new(),
            shards_queried: 3,
            generation: 7,
            cached: false,
            partial: false,
            degraded_shards: Vec::new(),
        };
        let encoded = full.to_json().encode();
        assert!(encoded.contains("\"partial\":false"));
        assert!(encoded.contains("\"degraded_shards\":[]"));

        let partial = QueryResponse {
            degraded_shards: vec![0, 2],
            partial: true,
            ..full
        };
        let encoded = partial.to_json().encode();
        assert!(encoded.contains("\"partial\":true"));
        assert!(encoded.contains("\"degraded_shards\":[0,2]"));
    }
}
