//! The library half of the `joinmi_bench` CLI: the deterministic corpus its
//! subcommands regenerate in every process, and the same-run ratio ledger
//! (`BENCH_RATIOS.json`) its CI gate compares. Absolute timings belong to
//! the repo's benchmark (`BENCHMARK.json`, `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod ledger;
