//! # blaeu-exec — the shared parallel-execution substrate
//!
//! Every hot parallel sweep in blaeu (pairwise mutual information,
//! distance-matrix construction, CLARA replicates, concurrent sessions,
//! the figure harness) routes through this crate instead of hand-rolling
//! scoped-thread pools. Centralizing execution buys three invariants that
//! per-module thread code cannot provide:
//!
//! 1. **One process-wide thread budget.** [`thread_budget`] is the single
//!    source of truth for worker counts — and the *only* call site of
//!    `std::thread::available_parallelism` in the workspace. It can be
//!    overridden programmatically ([`set_thread_budget`]) or via the
//!    `BLAEU_THREADS` environment variable.
//! 2. **Deterministic results.** [`par_map`] / [`par_map_range_grained`] return
//!    results in input order regardless of how work was chunked, and
//!    [`par_shards`] returns per-shard results in shard order over a
//!    [`ShardSpec`] whose layout depends only on the input length — so
//!    floating-point reductions that combine shards in order are
//!    bit-identical for `threads = 1` and `threads = N`.
//! 3. **No oversubscription.** Code running inside an executor worker is
//!    flagged as such; any nested executor call degrades
//!    to sequential execution on the worker's own thread instead of
//!    multiplying thread counts (e.g. CLARA building distance matrices
//!    inside a parallel session sweep).
//!
//! ## Work stealing and the adaptive grain
//!
//! Every parallel entry point feeds a **claim queue**: the index range is
//! cut into grains, workers pull the next unclaimed grain off a shared
//! atomic cursor, and results are re-assembled in grain order. A worker
//! that lands on a cheap grain immediately claims another, so skewed
//! workloads (triangular distance-matrix bands, mixed-cost dependency
//! pairs) keep every core busy without any effect on the output: order is
//! restored on collect, which is why the grain size is a pure performance
//! knob for [`par_map`] / [`par_map_range_grained`] / [`par_shards`].
//!
//! By default the grain is **adaptive**: `ceil(n / (threads ·
//! OVERPARTITION))`, clamped to at least 1 — enough grains that the
//! queue can rebalance, few enough that claim overhead stays negligible.
//! [`par_map_range_grained`] exposes the knob for callers whose items are
//! so coarse (CLARA replicates, shards) that every item should be its own
//! steal unit.
//!
//! ## Sharding ([`ShardSpec`] / [`par_shards`])
//!
//! Row-sharded hot paths (CLARA whole-dataset assignment, the pairwise
//! dependency sweep) partition their index space into contiguous shards
//! whose layout is a **pure function of the item count** — never of the
//! thread budget. Each shard becomes one steal-queue grain, and per-shard
//! results come back in shard order, so shard-grained reductions (e.g.
//! summing per-shard deviations) are bit-identical across thread counts.
//!
//! Worker panics are propagated to the caller with their original payload
//! after all sibling workers have finished.
//!
//! ## Asynchronous jobs ([`JobPool`] / [`JobHandle`])
//!
//! The batch primitives above block the caller until the whole fan-out
//! finishes. The [`pool`] module adds the queue-shaped complement: a
//! persistent worker pool with submit → join handles, used by
//! the asynchronous session tier so slow jobs overlap with fast ones.
//! Pool workers honor the same thread budget and nesting guard.

#![warn(missing_docs)]

pub mod pool;

pub use pool::{JobHandle, JobPool};

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Shard size of the row-sharded reductions: CLARA's whole-dataset
/// assignment sizes its [`ShardSpec`] with it, so its combine order is a
/// function of the row count only — never of the thread count.
pub const REDUCE_GRAIN: usize = 1024;

/// Target number of steal-queue grains *per worker* for the adaptive
/// grain: `par_map(n, t)` cuts the input into about `t · OVERPARTITION`
/// grains so the claim queue can rebalance skewed workloads, instead of
/// the legacy single `n / t` chunk per worker.
const OVERPARTITION: usize = 8;

/// The adaptive steal grain for `n` items on `threads` workers:
/// `ceil(n / (threads · OVERPARTITION))`, at least 1.
///
/// Public so callers that derive their own partition geometry from the
/// executor's balancing policy (e.g. distance-matrix band heights) track
/// this one formula instead of re-implementing it.
pub fn adaptive_grain(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * OVERPARTITION).max(1)
}

/// Resolves a caller-requested grain (`0` = adaptive) to an effective one.
fn effective_grain(n: usize, threads: usize, requested: usize) -> usize {
    if requested == 0 {
        adaptive_grain(n, threads)
    } else {
        requested.clamp(1, n.max(1))
    }
}

/// Explicit budget override; 0 means "auto-detect".
static BUDGET_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

#[allow(clippy::disallowed_methods)] // the one sanctioned available_parallelism site
fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::env::var("BLAEU_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            // The one and only `available_parallelism` call in the workspace.
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
    })
}

/// The process-wide worker-thread budget.
///
/// Resolution order: [`set_thread_budget`] override, then the
/// `BLAEU_THREADS` environment variable, then the machine's available
/// parallelism (detected once).
pub fn thread_budget() -> usize {
    match BUDGET_OVERRIDE.load(Ordering::Relaxed) {
        0 => detected_parallelism(),
        n => n,
    }
}

/// Overrides the process-wide thread budget (`0` restores auto-detection).
///
/// Affects every subsequent executor call in the process; useful for
/// benchmarks and for capping blaeu inside a larger application.
pub fn set_thread_budget(threads: usize) {
    BUDGET_OVERRIDE.store(threads, Ordering::Relaxed);
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is an executor worker. Executor entry
/// points consult this to degrade nested parallelism to sequential
/// execution.
fn in_parallel_region() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Flags the current thread as an executor worker for its whole lifetime
/// (used by [`JobPool`] workers, which are persistent threads rather than
/// scoped ones).
pub(crate) fn mark_worker_thread() {
    IN_WORKER.with(|w| w.set(true));
}

/// Resolves an effective worker count for `work_items` units of work.
///
/// `requested == 0` means "use the process budget". Returns 1 (sequential)
/// when there is at most one work item or when called from inside an
/// executor worker (nesting guard).
fn resolve_threads(requested: usize, work_items: usize) -> usize {
    if work_items <= 1 || in_parallel_region() {
        return 1;
    }
    let budget = if requested == 0 {
        thread_budget()
    } else {
        requested
    };
    budget.clamp(1, work_items)
}

/// Runs `f(chunk_index)` for `0..chunks` on up to `threads` workers,
/// returning results in chunk order and re-raising the first worker panic
/// (by chunk order) after all workers have finished.
fn run_chunked<R, F>(chunks: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    debug_assert!(threads > 1 && chunks > 1);
    let next = AtomicUsize::new(0);
    let workers = threads.min(chunks);
    let worker_parts: Vec<Vec<(usize, std::thread::Result<R>)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let f = &f;
            let next = &next;
            handles.push(scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                let mut mine = Vec::new();
                loop {
                    let chunk = next.fetch_add(1, Ordering::Relaxed);
                    if chunk >= chunks {
                        break;
                    }
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(chunk)));
                    let failed = result.is_err();
                    mine.push((chunk, result));
                    if failed {
                        break;
                    }
                }
                mine
            }));
        }
        handles
            .into_iter()
            // Workers never unwind (they catch), so join is clean.
            .map(|h| h.join().expect("executor worker cannot panic"))
            .collect()
    });
    let mut slots: Vec<Option<std::thread::Result<R>>> = Vec::new();
    slots.resize_with(chunks, || None);
    for (chunk, result) in worker_parts.into_iter().flatten() {
        slots[chunk] = Some(result);
    }
    // Chunks are claimed as a prefix of 0..chunks, and a hole can only
    // follow a recorded panic (every worker that stopped early recorded
    // one), so scanning in chunk order re-raises the earliest panic before
    // any hole is reached.
    let mut out = Vec::with_capacity(chunks);
    for slot in slots {
        match slot {
            Some(Ok(value)) => out.push(value),
            Some(Err(payload)) => resume_unwind(payload),
            None => unreachable!("unfilled chunk slot implies an already re-raised panic"),
        }
    }
    out
}

/// Applies `f` to every element of `items` (with its index), in parallel,
/// returning results in input order.
///
/// `threads == 0` uses the process [`thread_budget`]. The input is cut
/// into adaptive steal grains (see [`adaptive_grain`]) pulled off a shared
/// claim queue; order is restored on collect, so results are identical
/// for any thread count. Calls from inside an executor worker run
/// sequentially (nesting guard). Panics in `f` are propagated with their
/// original payload.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_grained(items, threads, 0, f)
}

/// [`par_map`] with an explicit steal-grain size (`grain == 0` =
/// adaptive); the slice twin of [`par_map_range_grained`].
fn par_map_grained<T, R, F>(items: &[T], threads: usize, grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let t = resolve_threads(threads, n);
    if t <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let grain = effective_grain(n, t, grain);
    let chunks = n.div_ceil(grain);
    if chunks <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let parts = run_chunked(chunks, t, |c| {
        let start = c * grain;
        let end = (start + grain).min(n);
        items[start..end]
            .iter()
            .enumerate()
            .map(|(k, x)| f(start + k, x))
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Applies `f` to every index in `0..n`, in parallel, returning results in
/// index order, with an explicit steal-grain size (`grain == 0` =
/// adaptive). Semantics as [`par_map`].
///
/// `grain` is a pure performance knob: it changes how work is claimed,
/// never the results. Use `grain == 1` when every item is coarse enough
/// to be its own steal unit (CLARA replicates, shards); larger
/// grains amortize claim overhead for cheap items.
pub fn par_map_range_grained<R, F>(n: usize, threads: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t = resolve_threads(threads, n);
    if t <= 1 {
        return (0..n).map(f).collect();
    }
    let grain = effective_grain(n, t, grain);
    let chunks = n.div_ceil(grain);
    if chunks <= 1 {
        return (0..n).map(f).collect();
    }
    let parts = run_chunked(chunks, t, |c| {
        let start = c * grain;
        let end = (start + grain).min(n);
        (start..end).map(&f).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// A thread-count-independent partition of `0..items` into contiguous,
/// equal-size shards (the last may be short).
///
/// The layout is a pure function of `(items, shard_size)` — constructors
/// never consult [`thread_budget`] — so anything accumulated *per shard
/// in shard order* (labels, deviation sums, figure outputs) is
/// bit-identical whatever the parallelism: it describes *what* a shard
/// covers, not *who* runs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    items: usize,
    shard_size: usize,
}

impl ShardSpec {
    /// A spec with a fixed shard size.
    ///
    /// # Panics
    /// Panics if `shard_size == 0`.
    pub fn with_shard_size(items: usize, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard size must be positive");
        ShardSpec { items, shard_size }
    }

    /// Number of shards (0 for an empty spec).
    pub fn shard_count(&self) -> usize {
        self.items.div_ceil(self.shard_size)
    }

    /// Half-open item range of shard `s`.
    ///
    /// # Panics
    /// Panics if `s >= shard_count()`.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        assert!(s < self.shard_count(), "shard index out of range");
        let start = s * self.shard_size;
        start..(start + self.shard_size).min(self.items)
    }
}

/// Runs `f(shard_index, item_range)` for every shard of `spec` in
/// parallel, returning per-shard results **in shard order**.
///
/// Each shard is one steal-queue grain, so skewed shards rebalance across
/// workers; because the shard layout ignores the thread budget, combining
/// the returned values in order is deterministic across thread counts.
/// `threads == 0` uses the process budget; nested calls degrade to
/// sequential as usual.
pub fn par_shards<R, F>(spec: &ShardSpec, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    par_map_range_grained(spec.shard_count(), threads, 1, |s| f(s, spec.range(s)))
}

/// Splits `data` at the given interior `boundaries` (ascending offsets into
/// `data`) and runs `f(chunk_index, chunk)` on every piece in parallel.
///
/// With `k` boundaries there are `k + 1` chunks. This is the zero-copy
/// building block for writers that fill disjoint regions of one buffer
/// (e.g. the condensed distance matrix). Determinism is the caller's
/// contract: each chunk's content must depend only on its position, which
/// holds for all blaeu call sites. Nested calls run sequentially.
///
/// # Panics
/// Panics if `boundaries` is not ascending or exceeds `data.len()`.
pub fn par_chunks_mut<T, F>(data: &mut [T], boundaries: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let mut chunks: Vec<&mut [T]> = Vec::with_capacity(boundaries.len() + 1);
    let mut rest = data;
    let mut consumed = 0usize;
    for &b in boundaries {
        assert!(b >= consumed, "boundaries must be ascending");
        let (head, tail) = rest.split_at_mut(b - consumed);
        chunks.push(head);
        consumed = b;
        rest = tail;
    }
    chunks.push(rest);

    let t = resolve_threads(0, chunks.len());
    if t <= 1 {
        for (i, chunk) in chunks.into_iter().enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Hand each worker ownership of its chunk via an indexed queue.
    let slots: Vec<parking::Slot<'_, T>> = chunks.into_iter().map(parking::Slot::new).collect();
    let results = run_chunked(slots.len(), t, |i| {
        let chunk = slots[i].take();
        f(i, chunk);
    });
    drop(results);
}

/// Tiny cell granting one-time mutable access to a chunk from another
/// thread (used by [`par_chunks_mut`]).
mod parking {
    use std::sync::Mutex;

    /// One-shot handoff cell for a mutable slice.
    pub struct Slot<'a, T>(Mutex<Option<&'a mut [T]>>);

    impl<'a, T> Slot<'a, T> {
        /// Wraps a chunk.
        pub fn new(chunk: &'a mut [T]) -> Self {
            Slot(Mutex::new(Some(chunk)))
        }

        /// Takes the chunk; panics on double-take.
        pub fn take(&self) -> &'a mut [T] {
            self.0
                .lock()
                .expect("slot lock poisoned")
                .take()
                .expect("chunk taken twice")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::catch_unwind;
    use std::thread::ThreadId;

    #[test]
    fn par_map_empty_input() {
        let out: Vec<usize> = par_map::<usize, _, _>(&[], 0, |i, &x| i + x);
        assert!(out.is_empty());
        let out: Vec<usize> = par_map_range_grained(0, 4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_single_item() {
        assert_eq!(par_map(&[7usize], 8, |i, &x| (i, x * 2)), vec![(0, 14)]);
    }

    #[test]
    fn chunk_boundaries_cover_every_index_exactly_once() {
        // Exercise sizes around chunk boundaries for several thread counts.
        for &n in &[
            1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 1023, 1024, 1025,
        ] {
            for &t in &[1usize, 2, 3, 4, 5, 7, 8] {
                let out = par_map_range_grained(n, t, 0, |i| i);
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n} t={t}");
            }
        }
    }

    #[test]
    fn results_ordered_and_identical_across_thread_counts() {
        let items: Vec<f64> = (0..5000).map(|i| (i as f64).sin()).collect();
        let serial = par_map(&items, 1, |i, &x| x * i as f64);
        for threads in [2, 3, 4, 8, 16] {
            let parallel = par_map(&items, threads, |i, &x| x * i as f64);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let result = catch_unwind(|| {
            par_map_range_grained(64, 4, 0, |i| {
                if i == 33 {
                    panic!("worker exploded at {i}");
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("worker exploded at 33"),
            "payload lost: {message:?}"
        );
    }

    #[test]
    fn nested_calls_degrade_to_sequential() {
        assert!(!in_parallel_region());
        // A two-party barrier forces chunks 0 and 1 onto *distinct* worker
        // threads (a single worker would deadlock at the barrier mid-chunk,
        // so another must pick up the other side) — even on one CPU.
        let rendezvous = std::sync::Barrier::new(2);
        let inner_ids: Vec<Vec<ThreadId>> = par_map_range_grained(4, 4, 0, |i| {
            assert!(in_parallel_region(), "worker must be flagged");
            if i < 2 {
                rendezvous.wait();
            }
            // The nested call must run on this worker's own thread.
            par_map_range_grained(16, 8, 0, |_| std::thread::current().id())
        });
        for ids in &inner_ids {
            let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
            assert_eq!(distinct.len(), 1, "nested call used multiple threads");
        }
        let outer: HashSet<ThreadId> = inner_ids.iter().map(|ids| ids[0]).collect();
        assert!(outer.len() > 1, "outer call should actually fan out");
        assert!(!in_parallel_region(), "flag must not leak to the caller");
    }

    #[test]
    fn par_chunks_mut_fills_disjoint_regions() {
        let mut data = vec![0usize; 100];
        par_chunks_mut(&mut data, &[10, 40, 40, 95], |chunk_idx, chunk| {
            for v in chunk.iter_mut() {
                *v = chunk_idx + 1;
            }
        });
        assert!(data[..10].iter().all(|&v| v == 1));
        assert!(data[10..40].iter().all(|&v| v == 2));
        // Chunk 3 ([40, 40)) is empty.
        assert!(data[40..95].iter().all(|&v| v == 4));
        assert!(data[95..].iter().all(|&v| v == 5));
    }

    #[test]
    fn budget_override_is_respected() {
        set_thread_budget(2);
        assert_eq!(thread_budget(), 2);
        set_thread_budget(0);
        assert!(thread_budget() >= 1);
    }

    /// Skew coverage for the claim queue: grain `i` costs O(i²) work, so
    /// a static `n / threads` split would leave the first workers idle
    /// while the last one grinds through the expensive tail. With the
    /// adaptive grain every worker keeps pulling grains until the queue
    /// is dry. Two 4-party barrier bands make the per-worker assertion
    /// deterministic rather than probabilistic, even on one core: a
    /// claimed worker blocks at the barrier and cannot claim again, so
    /// the first four grains are necessarily claimed by four *distinct*
    /// workers — and, because the cursor hands out the last four grains
    /// only after the middle ones, the same argument forces the last
    /// four grains onto four distinct workers too. Disjoint bands mean
    /// every worker retires at least two grains, full stop.
    #[test]
    fn skewed_quadratic_grains_are_stolen_by_every_worker() {
        let threads = 4;
        // n ≤ threads · OVERPARTITION makes the adaptive grain exactly 1.
        let n = threads * OVERPARTITION;
        let quadratic = |i: usize| {
            let mut acc = 0u64;
            for k in 0..(i * i * 2_000 + 10_000) {
                acc = acc.wrapping_add((k as u64).wrapping_mul(2_654_435_761));
            }
            acc
        };
        let expected: Vec<u64> = (0..n).map(quadratic).collect();
        // std's Barrier is cyclic: one instance serves both bands.
        let rendezvous = std::sync::Barrier::new(threads);
        let out: Vec<(u64, ThreadId)> = par_map_range_grained(n, threads, 0, |i| {
            if i < threads || i >= n - threads {
                rendezvous.wait();
            }
            (quadratic(i), std::thread::current().id())
        });
        let values: Vec<u64> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, expected, "stolen grains must collect in order");
        let mut retired: std::collections::HashMap<ThreadId, usize> =
            std::collections::HashMap::new();
        for &(_, id) in &out {
            *retired.entry(id).or_default() += 1;
        }
        assert_eq!(retired.len(), threads, "all workers must participate");
        for (id, count) in retired {
            assert!(count > 1, "worker {id:?} retired only {count} grain(s)");
        }
    }

    #[test]
    fn grained_variants_match_adaptive_results() {
        let items: Vec<u64> = (0..1000).map(|i| i * 3 + 1).collect();
        let reference = par_map(&items, 1, |i, &x| x + i as u64);
        for grain in [0usize, 1, 7, 125, 1000, 5000] {
            for threads in [2usize, 4, 8] {
                assert_eq!(
                    par_map_grained(&items, threads, grain, |i, &x| x + i as u64),
                    reference,
                    "grain={grain} threads={threads}"
                );
                assert_eq!(
                    par_map_range_grained(items.len(), threads, grain, |i| items[i] + i as u64),
                    reference,
                    "range grain={grain} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn shard_spec_partitions_exactly() {
        for &items in &[0usize, 1, 5, 4095, 4096, 4097, 10_000] {
            for &size in &[1usize, 3, 1024, 4096] {
                let spec = ShardSpec::with_shard_size(items, size);
                let mut covered = Vec::new();
                for s in 0..spec.shard_count() {
                    let r = spec.range(s);
                    assert!(!r.is_empty(), "items={items} size={size} shard {s} empty");
                    assert!(r.len() <= size);
                    covered.extend(r);
                }
                assert_eq!(covered, (0..items).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn shard_spec_rejects_zero_size() {
        let _ = ShardSpec::with_shard_size(10, 0);
    }

    #[test]
    fn par_shards_is_ordered_and_thread_count_independent() {
        // Shard-order sums of a float workload must be bit-identical for
        // every thread count because the layout depends only on `items`.
        let spec = ShardSpec::with_shard_size(10_000, 512);
        let value = |i: usize| ((i as f64) * 0.3).cos() / (i as f64 + 2.0);
        let sum_with = |threads: usize| {
            par_shards(&spec, threads, |s, range| {
                let local: f64 = range.map(value).sum();
                (s, local)
            })
            .into_iter()
            .map(|(_, local)| local)
            .fold(0.0f64, |a, b| a + b)
        };
        let reference = sum_with(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(reference.to_bits(), sum_with(threads).to_bits());
        }
        let shards = par_shards(&spec, 4, |s, range| (s, range));
        for (s, (idx, range)) in shards.into_iter().enumerate() {
            assert_eq!(s, idx, "shard results must come back in shard order");
            assert_eq!(range, spec.range(s));
        }
    }

    #[test]
    fn par_shards_nested_degrades_to_sequential() {
        let outer = par_map_range_grained(4, 4, 0, |_| {
            let spec = ShardSpec::with_shard_size(64, 4);
            let ids: HashSet<ThreadId> = par_shards(&spec, 8, |_, _| std::thread::current().id())
                .into_iter()
                .collect();
            ids.len()
        });
        assert!(outer.iter().all(|&distinct| distinct == 1));
    }

    #[test]
    fn explicit_thread_count_overrides_budget() {
        // threads=3 on 10 items: at most 3 worker threads observed.
        let ids = par_map_range_grained(10, 3, 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: HashSet<ThreadId> = ids.into_iter().collect();
        assert!(distinct.len() <= 3);
    }
}
