//! # focus-exec — deterministic fork-join execution
//!
//! Every hot path in the FOCUS pipeline is embarrassingly parallel over
//! independent units of work: the one-scan-per-dataset region counting
//! behind `δ(f,g)` is parallel over rows, Apriori support counting is
//! parallel over transactions, and the bootstrap null distribution of the
//! qualification procedure (Section 3.4 of the paper) is parallel over
//! resamples. This crate provides the one mechanism all of them share:
//! a scoped fork-join over index ranges with a **deterministic chunk
//! decomposition and merge order**, built on `std::thread` only.
//!
//! ## The determinism contract
//!
//! Parallel results are **bit-identical** to sequential results, for any
//! thread count, because
//!
//! 1. chunk boundaries are a pure function of `(len, chunk count)` — no
//!    work stealing, no racing on a shared cursor;
//! 2. per-chunk results are merged *in chunk order* on the calling thread;
//! 3. the merges the callers perform are exact: `u64` counter addition
//!    (associative and commutative — regrouping cannot change the sum) and
//!    order-preserving concatenation. Floating-point aggregation always
//!    happens *after* the merge, on the same totals in the same order as
//!    the sequential code;
//! 4. randomized fan-out (bootstrap resamples) derives one RNG seed per
//!    work item via [`derive_seed`], so a replicate's random stream depends
//!    only on `(master seed, replicate index)` — never on which thread ran
//!    it or how many threads exist.
//!
//! The cross-crate `tests/parallel_equiv.rs` suite in the workspace root
//! enforces this contract for all three model classes.
//!
//! ## Choosing a thread count
//!
//! APIs take a [`Parallelism`] value. `Parallelism::Global` (the default)
//! resolves to the process-wide setting: [`set_global_threads`] if called
//! (the CLI's `--threads` flag), else the `FOCUS_THREADS` environment
//! variable (`0` or `auto` = one thread per core), else one thread per
//! available core.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default minimum work items per chunk for dataset scans. Region-counting
/// scans cost `O(rows · regions)` per item, so a few hundred items dwarf
/// the ~50 µs a scoped spawn costs. Callers with much cheaper or much more
/// expensive items (e.g. bootstrap replicates: one full pipeline each)
/// pass their own grain.
pub const DEFAULT_GRAIN: usize = 256;

/// How many worker threads a parallel region may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Use the process-wide default (CLI `--threads`, `FOCUS_THREADS`
    /// environment variable, or one thread per available core).
    #[default]
    Global,
    /// Single-threaded execution on the calling thread.
    Sequential,
    /// Exactly this many worker threads (clamped to at least 1).
    Threads(usize),
}

impl Parallelism {
    /// Resolves to a concrete worker-thread count (always ≥ 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Global => global_threads(),
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// Process-wide thread-count override: 0 = not set (fall through to the
/// environment / core count).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Lazily parsed `FOCUS_THREADS` environment setting.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a knob value at most once per process: the first call reads
/// `read()`, parses it, and memoises the outcome in `cell`; every later
/// call returns the memoised value without re-reading or re-warning.
/// `on_invalid` runs **exactly once** — on the first call, and only if
/// the value was present but unparseable (the warn-once contract: a
/// typo'd setting silently falling back would be invisible, because
/// results are bit-identical by design, so it must be said — once).
fn knob_once<T, R, P, W>(cell: &OnceLock<Option<T>>, read: R, parse: P, on_invalid: W) -> Option<T>
where
    T: Copy,
    R: FnOnce() -> Option<String>,
    P: FnOnce(&str) -> Option<T>,
    W: FnOnce(&str),
{
    *cell.get_or_init(|| {
        let raw = read()?;
        match parse(&raw) {
            Some(v) => Some(v),
            None => {
                on_invalid(&raw);
                None
            }
        }
    })
}

fn env_threads() -> Option<usize> {
    knob_once(
        &ENV_THREADS,
        || std::env::var("FOCUS_THREADS").ok(),
        |raw| {
            let t = raw.trim();
            if t.eq_ignore_ascii_case("auto") {
                return Some(available_cores());
            }
            match t.parse::<usize>() {
                Ok(0) => Some(available_cores()),
                Ok(n) => Some(n),
                Err(_) => None,
            }
        },
        |raw| {
            eprintln!(
                "focus-exec: ignoring unparseable FOCUS_THREADS={raw:?} \
                 (want a number, 0, or \"auto\"); using one thread per core"
            );
        },
    )
}

/// Sets the process-wide default thread count (`Parallelism::Global`).
/// `0` means "one thread per available core". Takes precedence over the
/// `FOCUS_THREADS` environment variable.
pub fn set_global_threads(n: usize) {
    let resolved = if n == 0 { available_cores() } else { n };
    GLOBAL_THREADS.store(resolved, Ordering::Relaxed);
}

/// The process-wide default thread count: [`set_global_threads`] if set,
/// else `FOCUS_THREADS`, else one per available core.
pub fn global_threads() -> usize {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => env_threads().unwrap_or_else(available_cores),
        n => n,
    }
}

/// Splits `0..len` into `chunks` contiguous near-equal ranges: the first
/// `len % chunks` ranges get one extra element. Deterministic in its
/// arguments; never returns an empty range (fewer ranges are returned when
/// `len < chunks`).
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

thread_local! {
    /// True while the current thread is a focus-exec worker. Nested
    /// parallel regions (a bootstrap replicate whose pipeline contains
    /// chunked scans, say) run inline instead of multiplying thread
    /// counts: the outer fan-out already owns the parallelism budget.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` over a deterministic chunk decomposition of `0..len` and
/// returns the per-chunk results **in chunk order**.
///
/// The chunk count is `min(threads, len / grain)` (at least 1): `grain` is
/// the minimum number of items worth shipping to a worker thread, so tiny
/// inputs never pay thread-spawn overhead. With one chunk, `f(0..len)` runs
/// inline on the calling thread — the exact sequential code path.
///
/// Calls issued *from inside* a focus-exec worker always run inline:
/// nesting one parallel region in another would oversubscribe the machine
/// (outer threads × inner threads) without making anything faster. The
/// results are unaffected either way — that is the determinism contract.
pub fn map_chunks<R, F>(par: Parallelism, len: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = if IN_WORKER.get() { 1 } else { par.threads() };
    let chunks = threads.min(len / grain.max(1)).max(1);
    if chunks == 1 {
        return vec![f(0..len)];
    }
    let ranges = chunk_ranges(len, chunks);
    let fref = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                s.spawn(move || {
                    IN_WORKER.set(true);
                    fref(r)
                })
            })
            .collect();
        // Joining in spawn order keeps the merge order deterministic.
        handles
            .into_iter()
            .map(|h| h.join().expect("focus-exec worker panicked"))
            .collect()
    })
}

/// Runs `f` over a deterministic chunk decomposition of `0..len` and
/// concatenates the per-chunk vectors **in chunk order**.
///
/// This is the one audited home of the concatenate-in-chunk-order step the
/// determinism contract leans on: per-element results are exact (each
/// element is computed by the same code a sequential loop would run) and
/// the in-order concatenation reproduces the sequential output vector for
/// every thread count. Use it for element-wise maps whose results feed a
/// later sequential fold (per-region `f` differences, Lloyd assignments).
pub fn map_chunks_flat<R, F>(par: Parallelism, len: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let parts = map_chunks(par, len, grain, f);
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Runs `f(i)` for every `i in 0..n` and returns the results **in index
/// order**, fanning the indices out over worker threads. Each index is an
/// independent unit of work (grain 1) — the shape of bootstrap-resample
/// fan-out, where one index is one full model-induction pipeline run.
pub fn map_indices<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_chunks_flat(par, n, 1, |range| range.map(&f).collect::<Vec<R>>())
}

/// Chunked map + **fixed-order fold**: maps a deterministic chunk
/// decomposition of `0..len` and folds the per-chunk results in chunk
/// order on the calling thread. Returns `None` when `len == 0`.
///
/// Unlike [`map_chunks`], whose chunk count adapts to the thread count
/// (fine for exact merges like `u64` addition, where regrouping cannot
/// change the total), `map_reduce` fixes the decomposition as a pure
/// function of `(len, grain)`: always `ceil(len / grain)` chunks,
/// regardless of how many workers execute them. This is what makes
/// **floating-point** folds thread-count-invariant: every thread count
/// computes the same per-chunk partials and combines them in the same
/// order, so the result is bit-identical whether one worker maps all the
/// chunks or eight workers share them. The price is that a "sequential"
/// run folds chunk partials too — callers adopt the chunked fold as *the*
/// reference result rather than a straight-line accumulation.
///
/// Use this for sums of floats (k-means centroid accumulation, inertia);
/// keep using [`map_chunks`] + [`merge_counts`] for counters.
pub fn map_reduce<R, M, F>(par: Parallelism, len: usize, grain: usize, map: M, fold: F) -> Option<R>
where
    R: Send,
    M: Fn(Range<usize>) -> R + Sync,
    F: FnMut(R, R) -> R,
{
    if len == 0 {
        return None;
    }
    let ranges = chunk_ranges(len, len.div_ceil(grain.max(1)));
    let parts = map_indices(par, ranges.len(), |i| map(ranges[i].clone()));
    parts.into_iter().reduce(fold)
}

/// Runs two independent tasks, possibly in parallel, and returns both
/// results — the fork-join shape of recursing over the two sibling
/// subtrees of a decision-tree split.
///
/// With fewer than two threads available, or when called from inside a
/// focus-exec worker (the inline-nesting guard — an outer fan-out already
/// owns the parallelism budget), both tasks run inline on the calling
/// thread. Otherwise `b` runs on a scoped worker while the calling thread
/// runs `a`. Either way `(a, b)` come back in position, so results are
/// identical regardless of the execution mode — each task's internal
/// computation is untouched by where it ran.
///
/// The spawned side is **not** marked as a focus-exec worker: `join` is
/// meant for recursive divide-and-conquer where the *caller* halves its
/// thread budget at each fork (pass `Parallelism::Threads(budget)` with
/// `budget / 2` to each side), so nested joins may keep forking until the
/// budget runs out without oversubscribing the machine.
pub fn join<RA, RB, FA, FB>(par: Parallelism, a: FA, b: FB) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    FA: FnOnce() -> RA + Send,
    FB: FnOnce() -> RB + Send,
{
    if IN_WORKER.get() || par.threads() < 2 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("focus-exec join task panicked"))
    })
}

/// Merges per-chunk counter vectors by element-wise addition, in chunk
/// order. All parts must have equal length. `u64` addition is associative
/// and commutative, so the totals are bit-identical to a sequential count
/// regardless of how the rows were chunked.
pub fn merge_counts(parts: Vec<Vec<u64>>) -> Vec<u64> {
    let mut it = parts.into_iter();
    let Some(mut acc) = it.next() else {
        return Vec::new();
    };
    for part in it {
        assert_eq!(acc.len(), part.len(), "count vectors must align");
        for (a, b) in acc.iter_mut().zip(part) {
            *a += b;
        }
    }
    acc
}

/// Derives an independent per-work-item RNG seed from a master seed and a
/// work-item index (SplitMix64 finalizer over their combination). Replicate
/// `i` gets the same seed no matter how many threads run the fan-out, which
/// is what makes randomized parallel results thread-count-invariant.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        ^ index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_and_partition() {
        for len in [0usize, 1, 7, 64, 100, 1001] {
            for chunks in [1usize, 2, 3, 7, 16, 200] {
                let ranges = chunk_ranges(len, chunks);
                // Contiguous cover of 0..len, no empty ranges.
                let mut expect_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect_start);
                    assert!(r.end > r.start, "empty chunk for len={len} chunks={chunks}");
                    expect_start = r.end;
                }
                assert_eq!(expect_start, len);
                if len > 0 {
                    assert_eq!(ranges.len(), chunks.min(len));
                    // Near-equal: sizes differ by at most one.
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn map_chunks_results_in_chunk_order() {
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(3),
            Parallelism::Threads(8),
        ] {
            let parts = map_chunks(par, 100, 1, |r| (r.start, r.end));
            let mut expect_start = 0;
            for (s, e) in parts {
                assert_eq!(s, expect_start);
                expect_start = e;
            }
            assert_eq!(expect_start, 100);
        }
    }

    #[test]
    fn map_chunks_grain_limits_fanout() {
        // 100 items at grain 64: only one chunk even with many threads.
        let parts = map_chunks(Parallelism::Threads(16), 100, 64, |r| r);
        assert_eq!(parts, vec![0..100]);
        // Grain 25: at most 4 chunks.
        let parts = map_chunks(Parallelism::Threads(16), 100, 25, |r| r);
        assert_eq!(parts.len(), 4);
    }

    #[test]
    fn map_chunks_flat_concatenates_in_chunk_order() {
        let expected: Vec<usize> = (0..300).collect();
        for t in [1usize, 2, 4, 7] {
            let got = map_chunks_flat(Parallelism::Threads(t), 300, 16, |r| r.collect());
            assert_eq!(got, expected, "threads = {t}");
        }
        assert!(
            map_chunks_flat(Parallelism::Threads(4), 0, 16, |r| r.collect::<Vec<_>>()).is_empty()
        );
    }

    #[test]
    fn map_indices_preserves_order_for_any_thread_count() {
        let expected: Vec<usize> = (0..57).map(|i| i * i).collect();
        for t in [1usize, 2, 4, 7, 16] {
            let got = map_indices(Parallelism::Threads(t), 57, |i| i * i);
            assert_eq!(got, expected, "threads = {t}");
        }
        assert!(map_indices(Parallelism::Threads(4), 0, |i| i).is_empty());
    }

    #[test]
    fn merge_counts_is_elementwise_sum() {
        let merged = merge_counts(vec![vec![1, 2, 3], vec![10, 0, 5], vec![0, 1, 0]]);
        assert_eq!(merged, vec![11, 3, 8]);
        assert!(merge_counts(Vec::new()).is_empty());
    }

    #[test]
    fn parallel_count_matches_sequential_exactly() {
        // The canonical use: per-chunk u64 counters merged by addition.
        let data: Vec<u64> = (0..10_000).map(|i| i % 97).collect();
        let count = |par: Parallelism| {
            let parts = map_chunks(par, data.len(), 8, |r| {
                let mut c = vec![0u64; 97];
                for i in r {
                    c[data[i] as usize] += 1;
                }
                c
            });
            merge_counts(parts)
        };
        let seq = count(Parallelism::Sequential);
        for t in [2, 3, 4, 7, 13] {
            assert_eq!(count(Parallelism::Threads(t)), seq, "threads = {t}");
        }
    }

    #[test]
    fn nested_parallel_regions_run_inline() {
        // A parallel region opened inside a worker must not spawn again:
        // the inner map_chunks collapses to a single chunk, while the
        // outer one keeps its fan-out. (The inner call asks for 8 threads
        // over 8000 items at grain 1 — it would split if it could.)
        let outer = map_chunks(Parallelism::Threads(4), 4000, 1, |r| {
            let inner = map_chunks(Parallelism::Threads(8), 8000, 1, |ir| ir.len());
            (r.len(), inner.len())
        });
        assert_eq!(outer.len(), 4, "outer region keeps its fan-out");
        for (_, inner_chunks) in outer {
            assert_eq!(inner_chunks, 1, "nested region must run inline");
        }
        // Back on the calling thread, parallelism is available again.
        let after = map_chunks(Parallelism::Threads(2), 4000, 1, |r| r.len());
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn map_reduce_chunk_decomposition_ignores_thread_count() {
        // Float folding: the fixed decomposition makes the fold order a
        // pure function of (len, grain), so the sum is bit-identical for
        // every thread count — including 1.
        let data: Vec<f64> = (0..5000).map(|i| ((i as f64) * 0.37).sin()).collect();
        let sum = |par: Parallelism| {
            map_reduce(
                par,
                data.len(),
                64,
                |r| r.map(|i| data[i]).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let seq = sum(Parallelism::Sequential);
        for t in [2usize, 3, 4, 7, 16] {
            assert_eq!(
                sum(Parallelism::Threads(t)).to_bits(),
                seq.to_bits(),
                "threads = {t}"
            );
        }
    }

    #[test]
    fn map_reduce_empty_and_single_chunk() {
        assert_eq!(
            map_reduce(Parallelism::Threads(4), 0, 8, |r| r.len(), |a, b| a + b),
            None
        );
        // len <= grain: one chunk, fold never runs.
        assert_eq!(
            map_reduce(Parallelism::Threads(4), 5, 8, |r| r.len(), |_, _| panic!()),
            Some(5)
        );
    }

    #[test]
    fn join_returns_results_in_position() {
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(8),
        ] {
            let (a, b) = join(par, || "left", || 42u64);
            assert_eq!((a, b), ("left", 42));
        }
    }

    #[test]
    fn join_nests_recursively() {
        // A binary recursion over joins: sums 0..2^10 by halving, with the
        // thread budget halved at each fork. Identical for any budget.
        fn sum_range(lo: u64, hi: u64, budget: usize) -> u64 {
            if hi - lo <= 32 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(
                Parallelism::Threads(budget),
                move || sum_range(lo, mid, budget.div_ceil(2)),
                move || sum_range(mid, hi, budget / 2),
            );
            a + b
        }
        let expect: u64 = (0..1024).sum();
        for budget in [1usize, 2, 4, 7] {
            assert_eq!(sum_range(0, 1024, budget), expect, "budget = {budget}");
        }
    }

    #[test]
    fn join_runs_inline_inside_workers() {
        // Inside a map_chunks worker the inline-nesting guard applies: join
        // must not spawn (observable as the closure running on the same
        // thread: thread ids match).
        let outer = map_chunks(Parallelism::Threads(2), 2, 1, |_r| {
            let caller = std::thread::current().id();
            let (tid_a, tid_b) = join(
                Parallelism::Threads(4),
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            tid_a == caller && tid_b == caller
        });
        assert!(outer.into_iter().all(|inline| inline));
    }

    #[test]
    fn knob_once_parses_once_and_warns_once() {
        use std::sync::atomic::AtomicUsize;
        // Unparseable value: the warning fires on the first resolution
        // only; later calls return the memoised miss without re-warning.
        let cell: OnceLock<Option<usize>> = OnceLock::new();
        let warns = AtomicUsize::new(0);
        for _ in 0..3 {
            let got = knob_once(
                &cell,
                || Some("garbage".to_string()),
                |s| s.parse::<usize>().ok(),
                |raw| {
                    assert_eq!(raw, "garbage");
                    warns.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(got, None);
        }
        assert_eq!(warns.load(Ordering::Relaxed), 1, "warn-once contract");
        // Valid value: parsed once, memoised, never warned about.
        let cell: OnceLock<Option<usize>> = OnceLock::new();
        let reads = AtomicUsize::new(0);
        for _ in 0..3 {
            let got = knob_once(
                &cell,
                || {
                    reads.fetch_add(1, Ordering::Relaxed);
                    Some("42".to_string())
                },
                |s| s.parse::<usize>().ok(),
                |_| panic!("valid values must not warn"),
            );
            assert_eq!(got, Some(42));
        }
        assert_eq!(reads.load(Ordering::Relaxed), 1, "read-once memoisation");
        // Unset knob: no value, no warning.
        let cell: OnceLock<Option<usize>> = OnceLock::new();
        let got = knob_once(
            &cell,
            || None,
            |s| s.parse::<usize>().ok(),
            |_| panic!("unset values must not warn"),
        );
        assert_eq!(got, None);
    }

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
        // Nearby indices should not collide over a realistic rep range.
        let mut seen: Vec<u64> = (0..10_000).map(|i| derive_seed(1, i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn global_threads_override() {
        // Whatever the environment says, an explicit set wins.
        set_global_threads(3);
        assert_eq!(global_threads(), 3);
        assert_eq!(Parallelism::Global.threads(), 3);
        set_global_threads(0);
        assert!(global_threads() >= 1);
        // An explicit count clamps to at least one worker.
        assert_eq!(Parallelism::Threads(0).threads(), 1);
    }
}
