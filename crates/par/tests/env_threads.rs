//! `JOINMI_THREADS` environment handling, isolated in its own integration
//! test binary (= its own process) so mutating the process environment cannot
//! race with other tests.

use std::sync::atomic::{AtomicUsize, Ordering};

use joinmi_par::{par_map, par_map_with, with_threads};

/// The worker count a `par_*` call resolves right now, observed through the
/// public API: `par_map_with` creates one scratch per worker, and a map with
/// more chunks than workers starts every worker.
fn workers() -> usize {
    let inits = AtomicUsize::new(0);
    par_map_with(
        &[0u8; 64],
        || {
            inits.fetch_add(1, Ordering::Relaxed);
        },
        |(), _| (),
    );
    inits.into_inner()
}

#[test]
fn env_var_sets_default_thread_count_and_results_stay_identical() {
    let items: Vec<u64> = (0..4096).collect();
    let f = |&x: &u64| x.wrapping_mul(2_654_435_761).rotate_left(11);
    let want: Vec<u64> = items.iter().map(f).collect();

    std::env::set_var("JOINMI_THREADS", "1");
    assert_eq!(workers(), 1);
    let sequential = par_map(&items, f);

    std::env::set_var("JOINMI_THREADS", "4");
    assert_eq!(workers(), 4);
    let parallel = par_map(&items, f);

    assert_eq!(sequential, want);
    assert_eq!(parallel, want);

    // Invalid values fall back to the machine default rather than panicking.
    std::env::set_var("JOINMI_THREADS", "not-a-number");
    assert!(workers() >= 1);

    // An explicit override wins over the environment.
    std::env::set_var("JOINMI_THREADS", "2");
    assert_eq!(with_threads(7, workers), 7);

    std::env::remove_var("JOINMI_THREADS");
}
