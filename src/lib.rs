//! # joinmi
//!
//! Facade crate re-exporting the full `joinmi` public API.
//!
//! `joinmi` is a reproduction of *"Efficiently Estimating Mutual Information
//! Between Attributes Across Tables"* (Santos, Korn, Freire — ICDE 2024): a
//! library for estimating the mutual information between a target column of a
//! base table and feature columns of external candidate tables **without
//! materializing the join**, using fixed-size coordinated-sampling sketches.
//!
//! ## Crate map
//!
//! * [`par`] — scoped-thread parallel map primitives with deterministic
//!   output order (thread count via `JOINMI_THREADS`).
//! * [`hash`] — MurmurHash3, Fibonacci hashing, seeded unit-range hashers.
//! * [`store`] — versioned, checksummed on-disk binary format; repositories
//!   (and the sketches they embed) persist across processes (offline ingest
//!   → online query).
//! * [`table`] — in-memory relational substrate (typed columns, joins,
//!   group-by aggregation, CSV, type inference).
//! * [`estimators`] — entropy / MI estimators (MLE, KSG, MixedKSG, DC-KSG).
//! * [`sketch`] — the paper's contribution: TUPSK sketches, sketch joins,
//!   and MI estimation over sketch joins.
//! * [`synth`] — synthetic benchmark generators with analytically known MI.
//! * [`discovery`] — MI-based data discovery (repositories, joinability
//!   indexes, top-k relationship queries).
//! * [`serve`] — the sharded discovery daemon: REST queries over N shard
//!   repositories with timeout/admission/cache guardrails (protocol spec
//!   and runbook in `docs/SERVING.md`).
//! * [`eval`] — the experiment harness reproducing the paper's evaluation,
//!   with the four baseline sketches (LV2SK, PRISK, INDSK, CSK) in
//!   [`eval::baselines`].
//!
//! ## Quickstart
//!
//! ```
//! use joinmi::prelude::*;
//! use joinmi::sketch::tupsk;
//!
//! // Base table: one row per (date, zip) with the taxi-trip count target.
//! let train = Table::builder("taxi")
//!     .push_str_column("zipcode", vec!["11201", "10011", "11201", "10011"])
//!     .push_int_column("num_trips", vec![136, 112, 140, 118])
//!     .build()
//!     .unwrap();
//!
//! // Candidate table discovered elsewhere: population per zip code.
//! let cand = Table::builder("demographics")
//!     .push_str_column("zipcode", vec!["11201", "10011", "10003"])
//!     .push_int_column("population", vec![53_041, 50_594, 54_447])
//!     .build()
//!     .unwrap();
//!
//! // Sketch both sides (offline, independently), then estimate MI without
//! // materializing the left join.
//! let cfg = SketchConfig::new(256, 42);
//! let left = tupsk::build_left(&train, "zipcode", "num_trips", &cfg).unwrap();
//! let right = tupsk::build_right(&cand, "zipcode", "population", Aggregation::Avg, &cfg)
//!     .unwrap();
//! let joined = left.join(&right);
//! let estimate = joined.estimate_mi().unwrap();
//! assert!(estimate.mi >= 0.0);
//! ```

pub use joinmi_discovery as discovery;
pub use joinmi_estimators as estimators;
pub use joinmi_eval as eval;
pub use joinmi_hash as hash;
pub use joinmi_par as par;
pub use joinmi_serve as serve;
pub use joinmi_sketch as sketch;
pub use joinmi_store as store;
pub use joinmi_synth as synth;
pub use joinmi_table as table;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use joinmi_discovery::{
        AugmentationPlan, CandidateSource, RelationshipQuery, RepositorySnapshot, TableRepository,
    };
    pub use joinmi_estimators::{EstimatorKind, EstimatorWorkspace, MiEstimate};
    pub use joinmi_sketch::{
        Aggregation as SketchAggregation, ColumnSketch, JoinedSketch, SketchConfig, SketchKind,
    };
    pub use joinmi_store::StoreError;
    pub use joinmi_synth::{CdUnifConfig, KeyDistribution, TrinomialConfig};
    pub use joinmi_table::{Aggregation, DataType, Table, Value};
}
