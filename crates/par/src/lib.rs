//! Scoped-thread parallel execution primitives for `joinmi`.
//!
//! The build environment has no crate-registry access, so instead of `rayon`
//! this crate provides a small work-stealing-lite layer built entirely on
//! [`std::thread::scope`]:
//!
//! * [`par_map`] — map a function over a slice, one result per item;
//! * [`par_map_ranges`] — map a function over fixed-size chunks of `0..len`,
//!   one output per chunk, with chunk boundaries independent of the worker
//!   count;
//! * [`par_map_index`] / [`par_map_index_with`] — map over an index range
//!   `0..n`, optionally with a per-worker scratch state that is created once
//!   per worker thread and reused across all items that worker processes;
//! * [`par_map_with`] — slice variant of the scratch-state map.
//!
//! # Determinism
//!
//! Every function in this crate guarantees that the **output order equals the
//! input order** regardless of how many threads run or how chunks are
//! interleaved: workers claim chunk indices from an atomic cursor, tag each
//! produced chunk with its index, and the results are reassembled in index
//! order. Combined with pure per-item functions this makes parallel runs
//! bit-for-bit identical to sequential runs — the property the sketch
//! pipeline's tests assert.
//!
//! # Thread-count selection
//!
//! The worker count is resolved per call, in priority order:
//!
//! 1. an active [`with_threads`] override on the calling thread (used by
//!    tests and benchmarks so they never have to mutate process-global
//!    environment variables);
//! 2. the `JOINMI_THREADS` environment variable (a positive integer);
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested parallelism is suppressed: a `par_*` call made from inside a worker
//! of an enclosing `par_*` call runs sequentially on that worker, so wiring
//! parallelism through several layers (discovery → estimators) can never
//! multiply thread counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable controlling the default worker count.
pub const THREADS_ENV_VAR: &str = "JOINMI_THREADS";

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while the current thread is executing chunks on behalf of an
    /// enclosing `par_*` call; nested calls then run sequentially.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

#[cfg(test)]
thread_local! {
    /// `JOINMI_THREADS` look-ups [`num_threads`] made on this thread.
    static ENV_LOOKUPS: Cell<usize> = const { Cell::new(0) };
}

/// Parses a `JOINMI_THREADS`-style value. Returns `None` for anything that is
/// not a positive integer.
#[must_use]
pub fn parse_thread_count(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// The number of worker threads a `par_*` call made right now would use.
///
/// Resolution order: [`with_threads`] override → `JOINMI_THREADS` → available
/// parallelism → 1. Inside a parallel region this always returns 1 so nested
/// parallelism cannot multiply thread counts. The available parallelism is
/// an OS query (≈ 15 µs) and callers sit on per-item paths, so it is resolved
/// once per process.
#[must_use]
pub fn num_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    resolve_threads(
        IN_PARALLEL_REGION.with(Cell::get),
        THREAD_OVERRIDE.with(Cell::get),
        || {
            #[cfg(test)]
            ENV_LOOKUPS.with(|n| n.set(n.get() + 1));
            std::env::var(THREADS_ENV_VAR).ok()
        },
        || {
            *AVAILABLE.get_or_init(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
        },
    )
}

/// [`num_threads`]' precedence, with the two lookups that leave the process
/// passed in so each is made only when everything ahead of it is absent.
fn resolve_threads(
    in_parallel_region: bool,
    pinned: Option<usize>,
    env: impl FnOnce() -> Option<String>,
    available: impl FnOnce() -> usize,
) -> usize {
    if in_parallel_region {
        return 1;
    }
    if let Some(n) = pinned {
        return n.max(1);
    }
    env()
        .as_deref()
        .and_then(parse_thread_count)
        .unwrap_or_else(available)
}

/// Runs `f` with the calling thread's worker count pinned to `threads`.
///
/// The override is thread-local and restored when `f` returns (or panics), so
/// concurrent tests can pin different counts without racing on the process
/// environment. `JOINMI_THREADS` is ignored while an override is active.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let previous = THREAD_OVERRIDE.with(|cell| cell.replace(Some(threads.max(1))));
    let _restore = Restore(previous);
    f()
}

/// The worker count for a map of at most `max_chunks` chunks: a map that
/// cannot split runs on the calling thread, so it resolves nothing — outside
/// a region and without an override, [`num_threads`] reads the environment.
fn threads_for(max_chunks: usize) -> usize {
    if max_chunks > 1 {
        num_threads()
    } else {
        1
    }
}

/// Chunk size heuristic: enough chunks per worker for load balancing without
/// drowning small workloads in coordination overhead.
fn default_chunk_size(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.saturating_mul(4).max(1)).max(1)
}

/// The core runner: claims chunk indices `0..num_chunks` from an atomic
/// cursor across `threads` workers (the calling thread participates), runs
/// `run_chunk` with a per-worker scratch created by `init`, and returns the
/// chunk outputs **in chunk-index order**.
fn run_chunks_with<S, U, I, F>(
    num_chunks: usize,
    threads: usize,
    init: I,
    run_chunk: F,
) -> Vec<Vec<U>>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Vec<U> + Sync,
{
    if num_chunks == 0 {
        return Vec::new();
    }
    if threads <= 1 || num_chunks == 1 {
        let mut scratch = init();
        return (0..num_chunks)
            .map(|c| enter_parallel_region(|| run_chunk(&mut scratch, c)))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(num_chunks));
    let worker = || {
        enter_parallel_region(|| {
            let mut scratch = init();
            loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= num_chunks {
                    break;
                }
                let out = run_chunk(&mut scratch, c);
                results
                    .lock()
                    .expect("no panics while holding lock")
                    .push((c, out));
            }
        });
    };
    std::thread::scope(|scope| {
        // The calling thread is worker 0; spawn the rest.
        for _ in 1..threads.min(num_chunks) {
            scope.spawn(worker);
        }
        worker();
    });

    let mut collected = results.into_inner().expect("no panics while holding lock");
    collected.sort_unstable_by_key(|&(c, _)| c);
    collected.into_iter().map(|(_, out)| out).collect()
}

/// Marks the current thread as being inside a parallel region for the
/// duration of `f`, making nested `par_*` calls sequential.
fn enter_parallel_region<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL_REGION.with(|cell| cell.set(self.0));
        }
    }
    let previous = IN_PARALLEL_REGION.with(|cell| cell.replace(true));
    let _restore = Restore(previous);
    f()
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` — bit-for-bit, for pure `f`
/// — but spread over [`num_threads`] workers.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, || (), move |(), item| f(item))
}

/// Maps `f` over `items` in parallel with a per-worker scratch state.
///
/// `init` runs once per worker thread; the scratch it produces is reused for
/// every item that worker processes (the allocation-recycling pattern used by
/// the k-NN search). Results are in input order.
pub fn par_map_with<T, S, U, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let threads = threads_for(items.len());
    let chunk_size = default_chunk_size(items.len(), threads);
    let chunks = run_chunks_with(
        items.len().div_ceil(chunk_size.max(1)),
        threads,
        init,
        |scratch, c| {
            let start = c * chunk_size;
            let end = (start + chunk_size).min(items.len());
            items[start..end]
                .iter()
                .map(|item| f(scratch, item))
                .collect()
        },
    );
    flatten(chunks, items.len())
}

/// Maps `f` over fixed-size chunks of `0..len` in parallel, returning **one
/// output per chunk** in chunk-index order.
///
/// Unlike the per-item maps, the chunk boundaries here depend only on
/// `chunk_size` — never on the worker count — so a fixed-order reduction over
/// the outputs (e.g. summing per-chunk partial sums left to right) is
/// bit-for-bit identical across thread counts. This is the primitive behind
/// the estimators' parallel deterministic accumulation loops.
pub fn par_map_ranges<U, F>(len: usize, chunk_size: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> U + Sync,
{
    let chunk_size = chunk_size.max(1);
    let num_chunks = len.div_ceil(chunk_size);
    let chunks = run_chunks_with(
        num_chunks,
        threads_for(num_chunks),
        || (),
        |(), c| {
            let start = c * chunk_size;
            let end = (start + chunk_size).min(len);
            vec![f(start..end)]
        },
    );
    chunks.into_iter().flatten().collect()
}

/// Maps `f` over the index range `0..n` in parallel, in index order.
pub fn par_map_index<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_index_with(n, || (), move |(), i| f(i))
}

/// Maps `f` over `0..n` in parallel with a per-worker scratch state created
/// by `init` and reused across all indices a worker processes.
pub fn par_map_index_with<S, U, I, F>(n: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let threads = threads_for(n);
    let chunk_size = default_chunk_size(n, threads);
    let chunks = run_chunks_with(
        n.div_ceil(chunk_size.max(1)),
        threads,
        init,
        |scratch, c| {
            let start = c * chunk_size;
            let end = (start + chunk_size).min(n);
            (start..end).map(|i| f(scratch, i)).collect()
        },
    );
    flatten(chunks, n)
}

fn flatten<U>(chunks: Vec<Vec<U>>, len: usize) -> Vec<U> {
    let mut out = Vec::with_capacity(len);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || par_map(&items, |&x| x * x));
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_index_matches_sequential() {
        for n in [0usize, 1, 5, 1000] {
            for threads in [1, 4] {
                let got = with_threads(threads, || par_map_index(n, |i| i * 3));
                let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
                assert_eq!(got, want, "n={n}, threads={threads}");
            }
        }
    }

    #[test]
    fn scratch_state_is_reused_not_shared() {
        // Each worker counts how many items it processed in its scratch; the
        // total over all outputs must equal the item count exactly once each.
        let n = 5000usize;
        let outputs = with_threads(4, || {
            par_map_index_with(
                n,
                || 0usize,
                |count, i| {
                    *count += 1;
                    (i, *count)
                },
            )
        });
        assert_eq!(outputs.len(), n);
        for (pos, &(i, count)) in outputs.iter().enumerate() {
            assert_eq!(i, pos);
            assert!(count >= 1);
        }
    }

    #[test]
    fn par_map_ranges_covers_every_index_once() {
        for len in [0usize, 1, 7, 1000] {
            for chunk in [1usize, 3, 256, 5000] {
                let ranges = with_threads(4, || par_map_ranges(len, chunk, |r| r));
                let flat: Vec<usize> = ranges.into_iter().flatten().collect();
                let want: Vec<usize> = (0..len).collect();
                assert_eq!(flat, want, "len={len}, chunk={chunk}");
            }
        }
    }

    #[test]
    fn par_map_ranges_chunk_boundaries_do_not_depend_on_threads() {
        // The determinism contract: identical chunking (and therefore an
        // identical fixed-order float reduction) at any worker count.
        let values: Vec<f64> = (0..10_007).map(|i| (i as f64).sqrt()).collect();
        let sum_with = |threads: usize| {
            with_threads(threads, || {
                par_map_ranges(values.len(), 512, |r| values[r].iter().sum::<f64>())
                    .into_iter()
                    .sum::<f64>()
            })
        };
        let t1 = sum_with(1);
        for threads in [2, 4, 7] {
            assert_eq!(
                t1.to_bits(),
                sum_with(threads).to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        let inner = with_threads(3, num_threads);
        assert_eq!(inner, 3);
        assert_eq!(num_threads(), outer);
        // Zero is clamped to one.
        assert_eq!(with_threads(0, num_threads), 1);
    }

    #[test]
    fn nested_parallelism_is_sequential() {
        let depths = with_threads(4, || {
            par_map_index(8, |_| {
                // Inside a worker the resolved thread count must be 1.
                num_threads()
            })
        });
        assert!(depths.iter().all(|&d| d == 1), "nested counts: {depths:?}");
    }

    #[test]
    fn thread_count_precedence_makes_no_lookup_it_does_not_need() {
        // (in region, pinned, env) → (threads, env lookups, OS lookups)
        for (in_region, pinned, env, expected) in [
            (true, Some(4), Some("3"), (1, 0, 0)),
            (false, Some(4), Some("3"), (4, 0, 0)),
            (false, Some(0), Some("3"), (1, 0, 0)),
            (false, None, Some("3"), (3, 1, 0)),
            (false, None, Some("junk"), (7, 1, 1)),
            (false, None, None, (7, 1, 1)),
        ] {
            let (env_lookups, os_lookups) = (Cell::new(0), Cell::new(0));
            let threads = resolve_threads(
                in_region,
                pinned,
                || {
                    env_lookups.set(env_lookups.get() + 1);
                    env.map(str::to_owned)
                },
                || {
                    os_lookups.set(os_lookups.get() + 1);
                    7
                },
            );
            assert_eq!((threads, env_lookups.get(), os_lookups.get()), expected);
        }
    }

    #[test]
    fn a_single_chunk_map_resolves_no_thread_count() {
        // This test thread has no override and is in no region, so every
        // thread-count resolution here reads `JOINMI_THREADS`.
        let lookups = || ENV_LOOKUPS.with(Cell::get);
        let before = lookups();
        let items: Vec<u32> = (0..5).collect();
        assert_eq!(par_map_ranges(1_000, 1_024, |r| r.len()), vec![1_000]);
        assert!(par_map_ranges(0, 1_024, |r| r.len()).is_empty());
        assert_eq!(par_map_index(1, |i| i), vec![0]);
        assert_eq!(par_map(&items[..1], |&x| x), vec![0]);
        assert_eq!(lookups(), before, "a one-chunk map resolved a thread count");

        // A map that can split still resolves, once.
        assert_eq!(par_map_ranges(2_000, 1_024, |r| r.len()), vec![1_024, 976]);
        assert_eq!(lookups(), before + 1);
    }

    #[test]
    fn parse_thread_count_rejects_junk() {
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 12 "), Some(12));
        assert_eq!(parse_thread_count("0"), None);
        assert_eq!(parse_thread_count("-3"), None);
        assert_eq!(parse_thread_count("lots"), None);
        assert_eq!(parse_thread_count(""), None);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                par_map_index(64, |i| {
                    assert!(i != 13, "intentional test panic");
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
