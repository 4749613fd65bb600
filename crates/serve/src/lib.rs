//! The `joinmi` serving layer: a long-lived, sharded discovery daemon.
//!
//! Everything below this crate is a library: sketches are built offline
//! ([`joinmi_discovery::TableRepository`] → `save`), reopened cheaply
//! (`load_mmap_like`), extended in place (`append_to`), and queried
//! bit-deterministically ([`joinmi_discovery::RelationshipQuery`]). This
//! crate is the piece that turns those parts into the interactive
//! data-discovery *service* the paper's end goal describes: a daemon that
//! holds N shard repositories open and answers "which candidate columns are
//! most informative about my target?" over REST in milliseconds, because
//! every expensive artifact was built before the query arrived.
//!
//! # Architecture
//!
//! ```text
//! client ──HTTP/1.1──► acceptor ──► connection thread (parse, route, cache)
//!                                        │ POST /v1/query, under its
//!                                        │ admission permit, with one
//!                                        │ EstimatorWorkspace per query
//!                                        ▼
//!                          shard 0 … shard N−1 snapshots
//!                          (execute_in per shard, then a
//!                           deterministic global merge)
//! ```
//!
//! * [`shard::ShardSet`] opens N repository files as read-only snapshots
//!   (optionally repairing torn append tails first) and merges per-shard
//!   rankings into a global top-k that is **bit-for-bit identical** to
//!   querying one repository holding every table — see the module docs for
//!   why the merge is exact.
//! * [`server::Server`] is the daemon: `POST /v1/query`, `GET /v1/shards`,
//!   `GET /v1/healthz`, speaking the JSON protocol specified in
//!   `docs/SERVING.md`.
//! * [`guard`] holds the production guardrails: a per-query wall-clock
//!   [`guard::Deadline`], an [`guard::AdmissionGate`] bounding in-flight
//!   queries (typed 429 rejection, never an unbounded queue), a bounded
//!   LRU [`guard::QueryCache`] keyed by (query fingerprint, snapshot
//!   generation) so append epochs invalidate cached rankings implicitly,
//!   plus the failure-handling primitives — capped jittered [`guard::Backoff`]
//!   and the per-shard [`guard::ShardHealth`] circuit breaker.
//! * The daemon **degrades instead of dying**: each query is scored behind
//!   `catch_unwind` (typed 500, counter on `/v1/shards`), failing
//!   shards are quarantined and served around (`allow_partial` opts into a
//!   partial ranking; default is a strict 500) while a backoff loop reopens
//!   them, and SIGTERM drains in-flight queries before exit. See
//!   "Failure modes & degraded serving" in `docs/SERVING.md`.
//! * [`json`] and [`http`] are hand-rolled minimal implementations over
//!   `std`, like the rest of the workspace: the build is offline, so no
//!   serde, no hyper — and nothing this protocol does not need.
//!
//! # Exactness on the wire
//!
//! The response carries each result's MI twice: as a JSON float (shortest
//! round-trip formatting, exact for Rust readers) and as `mi_bits`, the hex
//! IEEE-754 bit pattern. CI compares a 3-shard REST query against the same
//! corpus queried in process through `mi_bits`, pinning the whole stack —
//! JSON, HTTP, sharding, merge — to bit-for-bit agreement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A daemon must not die on a recoverable edge: every unwrap/expect in this
// crate is either converted to a typed error, poison-stripped
// (`unwrap_or_else(PoisonError::into_inner)`), or explicitly allow-listed as
// infallible at the call site. CI runs clippy with `-D warnings`, so these
// are errors in practice.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod guard;
pub mod http;
pub mod json;
pub mod server;
pub mod shard;
pub mod wire;

pub use guard::{AdmissionGate, Backoff, Deadline, QueryCache, ShardHealth};
pub use http::client_request;
pub use server::{wait_healthy, Server, ServerConfig};
pub use shard::{ExecuteOutcome, Shard, ShardRepair, ShardSet};
pub use wire::{QueryRequest, QueryResponse, ServeError, ShardedResult, TargetValue};
