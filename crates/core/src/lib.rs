//! Fixed-size coordinated-sampling sketches for join-free mutual-information
//! estimation — the primary contribution of the paper (Section IV).
//!
//! # The problem
//!
//! Given a base table `Ttrain[K_Y, Y]` and a candidate table `Tcand[K_Z, Z]`,
//! estimate `I(X; Y)` where `X = AGG(Z) GROUP BY K_Z` joined back onto
//! `Ttrain` with a left-outer many-to-one join — *without* materializing the
//! join. Sketches are built per column offline; at query time two sketches
//! are joined on their hashed keys and the recovered paired sample is fed to
//! an off-the-shelf MI estimator.
//!
//! # The sketch
//!
//! TUPSK ([`tupsk`], Section IV-B) samples individual rows `⟨k, j⟩`,
//! coordinated on `⟨k, 1⟩`, and keeps at most `n` of them: every row has
//! inclusion probability `1/N`, so a sketch join recovers an i.i.d.-like
//! sample of the left-outer join. The paper's four baselines (LV2SK, PRISK,
//! INDSK, CSK) live in `joinmi_eval::baselines`; [`SketchKind`] names all
//! five.
//!
//! A repository keeps right-side TUPSK sketches, appendable through
//! [`RightSketchBuilder`] and embedded in its file through [`persist`].
//!
//! # Quick example
//!
//! ```
//! use joinmi_table::{Aggregation, Table};
//! use joinmi_sketch::{tupsk, SketchConfig};
//!
//! let train = Table::builder("train")
//!     .push_str_column("k", vec!["a", "a", "b", "c"])
//!     .push_int_column("y", vec![1, 2, 3, 4])
//!     .build()
//!     .unwrap();
//! let cand = Table::builder("cand")
//!     .push_str_column("k", vec!["a", "b", "b", "c"])
//!     .push_float_column("z", vec![0.5, 1.0, 2.0, 3.0])
//!     .build()
//!     .unwrap();
//!
//! let cfg = SketchConfig::new(128, 7);
//! let left = tupsk::build_left(&train, "k", "y", &cfg).unwrap();
//! let right = tupsk::build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap();
//! let joined = left.join(&right);
//! assert_eq!(joined.len(), 4); // small tables: the sketch recovers the full join
//! let est = joined.estimate_mi().unwrap();
//! assert!(est.mi >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod distinct;
pub mod incremental;
pub mod join;
pub mod kind;
pub mod kmv;
pub mod persist;
pub mod prep;
pub mod row;
pub mod tupsk;

pub use config::{Side, SketchConfig};
pub use distinct::DistinctSketch;
pub use incremental::RightSketchBuilder;
pub use join::JoinedSketch;
pub use kind::SketchKind;
pub use kmv::BoundedMinSet;
pub use row::{ColumnSketch, SketchRow};

// Re-exported so sketch users do not need a direct dependency on the table
// crate for the common case.
pub use joinmi_table::Aggregation;

/// Result alias using the table error type (sketches operate on tables).
pub type Result<T> = std::result::Result<T, joinmi_table::TableError>;
