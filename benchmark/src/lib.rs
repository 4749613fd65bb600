//! The repo's benchmark: four closed-loop workloads, seven end-to-end
//! metrics, and a per-layer trace taken from outside the program. See
//! `benchmark/README.md`.

pub mod cli;
pub mod compare;
pub mod daemon;
pub mod gen;
pub mod harness;
pub mod host;
pub mod metrics;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
