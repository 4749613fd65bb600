//! Resident memory of a wide, shallow ingest: many small tables at the
//! default sketch size.
//!
//! A candidate's appendable builder used to pre-size three tables for 1 024
//! keys (≈ 185 KB per candidate, of which ≈ 125 KB is touched, however few
//! keys arrived). Sized by content a forty-row candidate costs a few KB.
//! The test lives alone in this file so it runs in its own process and reads
//! that process's `VmRSS`.
#![cfg(target_os = "linux")]

use joinmi_discovery::{RepositoryConfig, TableRepository};
use joinmi_table::Table;

/// `VmRSS` of this process in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
fn five_hundred_forty_row_tables_stay_small_at_the_default_sketch_size() {
    const TABLES: usize = 500;
    const ROWS: usize = 40;
    // One string key and two numeric features: two candidates per table.
    let tables: Vec<Table> = (0..TABLES)
        .map(|t| {
            let keys: Vec<String> = (0..ROWS)
                .map(|i| format!("k{}", (i * 7 + t) % 36))
                .collect();
            Table::builder(format!("t{t}"))
                .push_str_column("key", keys.iter().map(String::as_str))
                .push_int_column("count", (0..ROWS).map(|i| ((i * 31 + t) % 17) as i64))
                .push_float_column("level", (0..ROWS).map(|i| (i + t) as f64 * 0.5))
                .build()
                .unwrap()
        })
        .collect();

    let config = RepositoryConfig::default();
    assert_eq!(config.sketch.size, 1024);
    let mut repo = TableRepository::new(config);
    let before = vm_rss_kib();
    let added = repo.add_tables(tables).unwrap();
    let grown_kib = vm_rss_kib().saturating_sub(before);
    assert_eq!(added, 2 * TABLES);

    // Measured: 11 MiB (tables, sketches, builders, index, profiles). With
    // builders sized for 1 024 keys the same ingest grew by 126 MiB.
    const BOUND_MIB: usize = 32;
    assert!(
        grown_kib < BOUND_MIB * 1024,
        "ingesting {added} forty-row candidates grew VmRSS by {} MiB (bound {BOUND_MIB} MiB)",
        grown_kib / 1024
    );
}
