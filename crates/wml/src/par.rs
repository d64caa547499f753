//! Zero-dependency parallel fan-out on scoped threads.
//!
//! The build environment cannot pull external crates (no rayon), so this
//! module provides the one primitive the workspace needs: an order-
//! preserving parallel map over a slice, built on [`std::thread::scope`].
//! It is used by the one-vs-one SVM trainer in this crate, re-exported as
//! `wimi_core::par` for the extraction pipeline, and consumed by the
//! experiment harness for the (trial × material) measurement fan-out.
//!
//! # Thread count
//!
//! The worker count comes from the `WIMI_THREADS` environment variable
//! when set to a parseable positive integer (`0` clamps to 1), otherwise
//! from [`std::thread::available_parallelism`]. An unset *or unparseable*
//! value (empty, garbage) falls through to the same default — it must
//! never silently serialise the pipeline. Callers must not bake the
//! thread count into results: every parallel site in the workspace derives
//! its per-item randomness from per-item seeds, so output is bitwise
//! identical for any `WIMI_THREADS` value.
//!
//! Both variables are read from the environment **once per process** (the
//! service layer calls [`max_threads`] from long-lived workers, where a
//! fresh `std::env::var` per request would be both overhead and a
//! nondeterminism hazard under a mutable environment). In-process callers
//! that need to vary the fan-out shape — benches, the thread-invariance
//! tests — use [`set_thread_override`]/[`set_chunk_override`] instead of
//! mutating the environment; the CI determinism jobs keep working
//! unchanged because they run `WIMI_THREADS=1` and `=4` as separate
//! processes.
//!
//! # Chunking
//!
//! Workers claim *chunks* of consecutive indices rather than single items,
//! so cheap items don't pay one atomic claim (and its cache-line bounce)
//! each. The chunk size comes from the `WIMI_CHUNK` environment variable
//! when set to a parseable positive integer (`0` clamps to 1), otherwise
//! from [`default_chunk`], which leaves a few claims per worker for load
//! balancing. Chunking only changes how indices are handed out — outputs
//! are identical for any chunk size.
//!
//! # Nesting
//!
//! There is one level of worker threads. Every thread [`map_chunked`]
//! spawns is marked, and a fan-out called on a marked thread — an SVM
//! trainer or a pair fan-out inside a measurement job, or a measurement
//! fan-out inside a campaign cell — takes the serial path instead of
//! spawning: the outer fan-out already keeps every worker busy, and a
//! second layer of scoped threads only adds spawn and scheduling cost.
//! A top-level call (from any unmarked thread) still fans out, even when
//! it sits inside an outer one-item map, which runs serially on the
//! caller's thread without marking it; so a standalone `WiMi::measure`
//! keeps its pair fan-out. Outputs are the same either way, because the
//! serial path is the one `WIMI_THREADS=1` takes.
//!
//! # Panics
//!
//! A panic inside a worker is forwarded to the caller (the scope joins all
//! workers first), so `map` behaves like the equivalent serial loop. A
//! panic in a nested inline map unwinds through its worker the same way.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Parses one fan-out environment value. `None` — unset, empty, or
/// unparseable — means "use the documented default"; a parsed `0` clamps
/// to 1. Surrounding whitespace is ignored.
///
/// (An earlier revision collapsed unparseable values to `1` via
/// `unwrap_or(1)`, silently serialising the whole pipeline on a typo like
/// `WIMI_THREADS=abc`; the regression tests below pin the fall-through.)
fn parse_fanout_env(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
}

/// `WIMI_THREADS`/`WIMI_CHUNK` as read once at first use.
static THREADS_ENV: OnceLock<Option<usize>> = OnceLock::new();
static CHUNK_ENV: OnceLock<Option<usize>> = OnceLock::new();

/// In-process overrides (0 = none). These exist so benches and the
/// thread-invariance tests can vary the fan-out shape without mutating
/// the (now cached) environment.
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static CHUNK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on every thread [`map_chunked`] spawns: a fan-out called from
    /// one runs inline (see the module docs on nesting).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn threads_env() -> Option<usize> {
    *THREADS_ENV.get_or_init(|| parse_fanout_env(std::env::var("WIMI_THREADS").ok().as_deref()))
}

fn chunk_env() -> Option<usize> {
    *CHUNK_ENV.get_or_init(|| parse_fanout_env(std::env::var("WIMI_CHUNK").ok().as_deref()))
}

/// Forces the worker count for this process, taking precedence over the
/// cached `WIMI_THREADS` value; `None` restores environment/default
/// behaviour. Outputs are thread-count invariant by contract, so this is
/// a shape control (for benches and invariance tests), never a results
/// control.
pub fn set_thread_override(n: Option<usize>) {
    THREADS_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Forces the fan-out chunk size for this process, taking precedence over
/// the cached `WIMI_CHUNK` value; `None` restores environment/default
/// behaviour.
pub fn set_chunk_override(n: Option<usize>) {
    CHUNK_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// The configured maximum worker count: the in-process override if set,
/// else `WIMI_THREADS` if parseable (≥ 1), else
/// [`std::thread::available_parallelism`].
pub fn max_threads() -> usize {
    match THREADS_OVERRIDE.load(Ordering::Relaxed) {
        0 => threads_env()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// The default fan-out chunk size for `n` items over `workers` workers:
/// big enough to amortise the atomic claim, small enough to leave roughly
/// four claims per worker for dynamic load balancing.
pub fn default_chunk(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * 4)).max(1)
}

/// The configured chunk size for `n` items over `workers` workers: the
/// in-process override if set, else `WIMI_CHUNK` if parseable (≥ 1), else
/// [`default_chunk`].
fn chunk_size(n: usize, workers: usize) -> usize {
    match CHUNK_OVERRIDE.load(Ordering::Relaxed) {
        0 => chunk_env().unwrap_or_else(|| default_chunk(n, workers)),
        c => c,
    }
}

/// Maps `f` over `items` in parallel, preserving input order in the
/// output. `f` receives `(index, &item)`.
///
/// Work is distributed dynamically: each worker claims the next unclaimed
/// chunk of consecutive indices from a shared atomic counter, so uneven
/// per-item cost balances itself. With one worker (or one item), or when
/// called from inside another fan-out's worker, this degrades to a plain
/// serial loop with no thread spawn.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = max_threads().min(items.len());
    map_chunked(items, workers, chunk_size(items.len(), workers), f)
}

/// The deterministic core of [`map`], with explicit worker count and chunk
/// size ([`map`] fills both in from the environment). Outputs are
/// identical for every `(workers, chunk)` combination. On a thread this
/// function spawned, it runs serially whatever `workers` says.
pub fn map_chunked<T, R, F>(items: &[T], workers: usize, chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = chunk.max(1);

    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, item) in items[start..end].iter().enumerate() {
                            let i = start + i;
                            out.push((i, f(i, item)));
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => indexed.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Like [`map`] over a range of indices `0..n` with no backing slice.
pub fn map_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    map(&indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, |_, &x| x).is_empty());
        assert_eq!(map(&[41], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn map_indices_counts() {
        assert_eq!(map_indices(4, |i| i * i), vec![0, 1, 4, 9]);
    }

    #[test]
    fn chunked_map_matches_serial_for_any_worker_chunk_combination() {
        let items: Vec<usize> = (0..103).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1usize, 2, 3, 4, 7] {
            for chunk in [1usize, 2, 5, 16, 103, 1000] {
                let out = map_chunked(&items, workers, chunk, |i, &x| {
                    assert_eq!(i, x);
                    x * 3 + 1
                });
                assert_eq!(out, serial, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn chunked_map_visits_every_item_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..64).collect();
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let _ = map_chunked(&items, 4, 3, |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn default_chunk_is_positive_and_balances() {
        assert_eq!(default_chunk(0, 4), 1);
        assert_eq!(default_chunk(3, 4), 1);
        assert_eq!(default_chunk(160, 4), 10);
        assert_eq!(default_chunk(160, 0), 40);
        // Each worker gets roughly four claims.
        let n = 1000;
        let workers = 8;
        let chunk = default_chunk(n, workers);
        let claims = n.div_ceil(chunk);
        assert!((claims / workers) >= 3, "claims = {claims}");
    }

    #[test]
    fn chunked_map_empty_input_with_many_workers() {
        let empty: Vec<u32> = Vec::new();
        // workers.min(0) == 0 must fall through to the serial path, not
        // spawn anything or index past the end.
        assert!(map_chunked(&empty, 8, 4, |_, &x| x).is_empty());
    }

    #[test]
    fn chunked_map_chunk_larger_than_len() {
        // One claim grabs everything; the other workers find the counter
        // exhausted and exit without work.
        let items = [10u32, 20, 30, 40, 50];
        let out = map_chunked(&items, 3, 100, |i, &x| (i, x));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40), (4, 50)]);
    }

    #[test]
    fn chunked_map_non_divisible_final_chunk_is_short() {
        // 10 items in chunks of 3: claims are [0..3), [3..6), [6..9), [9..10).
        // Every index must appear exactly once despite the short tail.
        let items: Vec<usize> = (0..10).collect();
        let counts: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
        let out = map_chunked(&items, 2, 3, |i, &x| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_override_reaches_map() {
        // A chunk override of 1 forces one claim per item through the
        // public `map` entry point. Outputs are chunk-invariant by
        // contract, so even if another test observes the override
        // mid-flight nothing changes.
        set_chunk_override(Some(1));
        let items: Vec<usize> = (0..37).collect();
        let out = map(&items, |_, &x| x * 2);
        set_chunk_override(None);
        assert_eq!(out, (0..37).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_override_reaches_map() {
        set_thread_override(Some(3));
        assert_eq!(max_threads(), 3);
        let items: Vec<usize> = (0..37).collect();
        let out = map(&items, |_, &x| x + 7);
        set_thread_override(None);
        assert_eq!(out, (7..44).collect::<Vec<_>>());
    }

    #[test]
    fn override_zero_clamps_to_one() {
        set_thread_override(Some(0));
        assert_eq!(max_threads(), 1);
        set_thread_override(None);
    }

    #[test]
    fn invalid_fanout_env_falls_through_to_default() {
        // Regression: unparseable values used to collapse to 1 via
        // `unwrap_or(1)`, silently serialising the pipeline. They must
        // fall through to the documented default instead.
        assert_eq!(parse_fanout_env(Some("abc")), None);
        assert_eq!(parse_fanout_env(Some("")), None);
        assert_eq!(parse_fanout_env(Some("   ")), None);
        assert_eq!(parse_fanout_env(Some("4x")), None);
        assert_eq!(parse_fanout_env(Some("-2")), None);
        assert_eq!(parse_fanout_env(None), None);
    }

    #[test]
    fn valid_fanout_env_parses_and_zero_clamps() {
        assert_eq!(parse_fanout_env(Some("4")), Some(4));
        assert_eq!(parse_fanout_env(Some(" 8 ")), Some(8));
        assert_eq!(parse_fanout_env(Some("\t2\n")), Some(2));
        // `0` still clamps to 1 rather than disabling the pool.
        assert_eq!(parse_fanout_env(Some("0")), Some(1));
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let items: Vec<usize> = (0..64).collect();
            map(&items, |_, &x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn nested_map_runs_on_the_outer_workers_thread() {
        let outer: Vec<usize> = (0..8).collect();
        let same_thread = map_chunked(&outer, 4, 1, |_, _| {
            let worker = std::thread::current().id();
            let inner: Vec<usize> = (0..16).collect();
            map(&inner, |_, _| std::thread::current().id())
                .into_iter()
                .all(|id| id == worker)
        });
        assert!(same_thread.iter().all(|&s| s));
    }

    #[test]
    fn nested_map_matches_serial_for_any_worker_chunk_combination() {
        let outer: Vec<usize> = (0..13).collect();
        let inner: Vec<usize> = (0..103).collect();
        let serial: Vec<Vec<usize>> = outer
            .iter()
            .map(|&o| inner.iter().map(|&x| o * 1000 + x * 3 + 1).collect())
            .collect();
        for outer_workers in [1usize, 2, 3, 4, 7] {
            for inner_workers in [1usize, 2, 3, 4, 7] {
                for chunk in [1usize, 2, 5, 16, 103, 1000] {
                    let out = map_chunked(&outer, outer_workers, chunk, |_, &o| {
                        map_chunked(&inner, inner_workers, chunk, |i, &x| {
                            assert_eq!(i, x);
                            o * 1000 + x * 3 + 1
                        })
                    });
                    assert_eq!(
                        out, serial,
                        "outer={outer_workers} inner={inner_workers} chunk={chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_inline_panic_reaches_the_top_level_caller() {
        let result = std::panic::catch_unwind(|| {
            let outer: Vec<usize> = (0..8).collect();
            map_chunked(&outer, 4, 1, |_, &o| {
                let inner: Vec<usize> = (0..8).collect();
                map_chunked(&inner, 4, 1, |_, &x| {
                    if o == 5 && x == 3 {
                        panic!("boom");
                    }
                    x
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn fan_out_under_a_one_item_top_level_map_still_spawns() {
        // A one-item outer map runs on the caller's thread without marking
        // it, so the inner fan-out keeps its workers (a standalone
        // `WiMi::measure` relies on this).
        let caller = std::thread::current().id();
        let inner: Vec<usize> = (0..4).collect();
        let ids = map_chunked(&[0u8], 4, 1, |_, _| {
            map_chunked(&inner, 2, 1, |_, _| std::thread::current().id())
        });
        assert!(ids[0].iter().all(|&id| id != caller));
    }

    #[test]
    fn max_threads_is_at_least_one() {
        assert!(max_threads() >= 1);
    }
}
