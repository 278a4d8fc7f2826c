#![forbid(unsafe_code)]
//! Offline stand-in for the `rayon` crate — now a real (if minimal) work
//! pool built entirely on `std::thread::scope`.
//!
//! The container this repo builds in has no network access, so upstream
//! rayon cannot be resolved. Earlier revisions of this shim executed both
//! `join` closures sequentially; this version runs them genuinely in
//! parallel while keeping the exact upstream signature, so every
//! divide-and-conquer call site (TSQR, FormW, D&C, blocked GEMM) gains
//! multi-core execution with no source change.
//!
//! # Pool model
//!
//! There are no persistent worker threads (that would require `'static`
//! closures or unsafe lifetime erasure — both off the table under
//! `#![forbid(unsafe_code)]`). Instead the pool is a *budget*: a global
//! count of extra threads the process may borrow at any instant, sized by
//! [`configure`] / the `TCEVD_THREADS` environment variable (default:
//! available parallelism). Each [`join`] that finds budget available
//! spawns one scoped thread for its second closure; each that doesn't
//! falls back to the sequential inline path. Because the budget is
//! checked at every fork, recursion auto-throttles: once `threads − 1`
//! scoped workers are live, all deeper forks inline and run at full
//! sequential speed with zero overhead beyond one atomic read.
//!
//! # Determinism contract
//!
//! Whether a fork spawns or inlines never changes *what* is computed, only
//! *where*: split points are chosen by the callers from problem shape
//! alone, both sides write disjoint outputs, and results are combined in
//! program order. Floating-point reduction order is therefore identical at
//! every thread count, and `configure(1)` restores the old fully
//! sequential shim behavior bit-exactly.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Requested pool size; `0` means "auto" (env / available parallelism).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);
/// Scoped worker threads currently borrowed from the budget.
static BORROWED: AtomicUsize = AtomicUsize::new(0);
/// Peak of `BORROWED + 1` ever observed (pool-utilization diagnostic).
static PEAK_THREADS: AtomicUsize = AtomicUsize::new(1);
/// Forks that actually spawned a scoped worker.
static JOIN_PARALLEL: AtomicU64 = AtomicU64::new(0);
/// Forks that took the sequential inline fast path.
static JOIN_INLINE: AtomicU64 = AtomicU64::new(0);
/// Total scoped worker threads spawned (a `for_each_chunk` region may
/// spawn several per fork).
static SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Resolved "auto" pool size: `TCEVD_THREADS` if set to a positive
/// integer, else `std::thread::available_parallelism()`. Cached once per
/// process so every fork pays only an atomic load.
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::env::var("TCEVD_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Set the pool size for subsequent forks. `0` restores the auto default
/// (`TCEVD_THREADS`, else available parallelism); `1` disables all
/// spawning, reproducing the historical sequential shim bit-exactly.
/// Threads already running are unaffected.
pub fn configure(threads: usize) {
    CONFIGURED.store(threads, Ordering::Relaxed);
}

/// The pool size forks currently target (≥ 1), mirroring
/// `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    match CONFIGURED.load(Ordering::Relaxed) {
        0 => auto_threads(),
        t => t,
    }
}

/// Releases one unit of thread budget when dropped, so budget can never
/// leak even if a closure panics across the scope.
struct SlotGuard;

impl Drop for SlotGuard {
    fn drop(&mut self) {
        BORROWED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Try to borrow one extra thread from the budget.
fn try_reserve() -> Option<SlotGuard> {
    let cap = current_num_threads().saturating_sub(1);
    let got = BORROWED
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            if cur < cap {
                Some(cur + 1)
            } else {
                None
            }
        })
        .is_ok();
    if got {
        PEAK_THREADS.fetch_max(BORROWED.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        Some(SlotGuard)
    } else {
        None
    }
}

/// Cumulative scheduling counters since process start. Snapshot before and
/// after a region and diff with [`PoolStats::since`] to attribute activity
/// to that region (the pipeline exports the diffs as `par.*` trace
/// counters). These describe *scheduling*, not results — they legitimately
/// differ between thread counts while the computed numbers stay
/// bit-identical.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Forks that ran their second closure on a spawned scoped thread.
    pub join_parallel: u64,
    /// Forks that took the sequential inline fast path.
    pub join_inline: u64,
    /// Scoped worker threads spawned in total.
    pub spawns: u64,
    /// Peak concurrent threads (workers + the caller) ever observed.
    pub peak_threads: usize,
}

impl PoolStats {
    /// Counter deltas from `earlier` to `self` (peak is not differenced —
    /// it is a high-water mark, reported as-is).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            join_parallel: self.join_parallel.saturating_sub(earlier.join_parallel),
            join_inline: self.join_inline.saturating_sub(earlier.join_inline),
            spawns: self.spawns.saturating_sub(earlier.spawns),
            peak_threads: self.peak_threads,
        }
    }
}

/// Read the cumulative [`PoolStats`].
pub fn stats() -> PoolStats {
    PoolStats {
        join_parallel: JOIN_PARALLEL.load(Ordering::Relaxed),
        join_inline: JOIN_INLINE.load(Ordering::Relaxed),
        spawns: SPAWNS.load(Ordering::Relaxed),
        peak_threads: PEAK_THREADS.load(Ordering::Relaxed),
    }
}

/// Run both closures and return their results, mirroring
/// [`rayon::join`](https://docs.rs/rayon/latest/rayon/fn.join.html).
///
/// If the pool has budget for an extra thread, `oper_b` runs on a scoped
/// worker while `oper_a` runs on the current thread; otherwise (pool of 1,
/// or all workers busy — the inline fast path) both run sequentially on
/// the current thread, `a` before `b`. Panics from either side propagate
/// to the caller, as with upstream rayon.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if let Some(slot) = try_reserve() {
        JOIN_PARALLEL.fetch_add(1, Ordering::Relaxed);
        SPAWNS.fetch_add(1, Ordering::Relaxed);
        let out = std::thread::scope(|s| {
            let hb = s.spawn(oper_b);
            let ra = oper_a();
            let rb = match hb.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            (ra, rb)
        });
        drop(slot);
        out
    } else {
        JOIN_INLINE.fetch_add(1, Ordering::Relaxed);
        let ra = oper_a();
        let rb = oper_b();
        (ra, rb)
    }
}

/// Run `f` once per item, fanning contiguous runs of items out across the
/// pool — the flat-scope primitive behind `blas3::for_col_chunks`'s
/// disjoint-column fan-out.
///
/// Items are split into as many contiguous groups as the budget allows
/// (never more than `items.len()`); each extra group runs on one scoped
/// worker while the first runs on the current thread. With no budget the
/// whole list runs inline in order. Since every item is independent and is
/// processed with identical arithmetic regardless of grouping, results do
/// not depend on the thread count.
pub fn for_each_chunk<T, F>(items: Vec<T>, f: &F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n = items.len();
    if n <= 1 {
        JOIN_INLINE.fetch_add(1, Ordering::Relaxed);
        for item in items {
            f(item);
        }
        return;
    }
    // Borrow as many extra workers as are both free and useful.
    let mut slots = Vec::new();
    while slots.len() < n - 1 && slots.len() < current_num_threads().saturating_sub(1) {
        match try_reserve() {
            Some(s) => slots.push(s),
            None => break,
        }
    }
    if slots.is_empty() {
        JOIN_INLINE.fetch_add(1, Ordering::Relaxed);
        for item in items {
            f(item);
        }
        return;
    }
    JOIN_PARALLEL.fetch_add(1, Ordering::Relaxed);
    SPAWNS.fetch_add(slots.len() as u64, Ordering::Relaxed);
    let workers = slots.len() + 1;
    // Contiguous even partition: group w covers [w·n/workers, (w+1)·n/workers).
    let mut items = items;
    let mut groups: Vec<Vec<T>> = Vec::with_capacity(workers);
    for w in (1..workers).rev() {
        groups.push(items.split_off(w * n / workers));
    }
    let first = items;
    std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| {
                s.spawn(move || {
                    for item in group {
                        f(item);
                    }
                })
            })
            .collect();
        for item in first {
            f(item);
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    drop(slots);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    // Pool configuration and the `stats()` counters are process-global.
    // Every test that forks, configures the pool or reads `stats()` holds
    // this lock, so no concurrently running test can add joins between a
    // `before` snapshot and its `since`, and the counts stay exact.
    static POOL_LOCK: Mutex<()> = Mutex::new(());

    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_threads<R>(t: usize, f: impl FnOnce() -> R) -> R {
        let _g = serialized();
        configure(t);
        let r = f();
        configure(0);
        r
    }

    #[test]
    fn join_returns_both_results_in_order() {
        let _g = serialized();
        let mut log = Vec::new();
        let (a, b) = super::join(|| 1 + 1, || 2 + 2);
        log.push(a);
        log.push(b);
        assert_eq!(log, vec![2, 4]);
    }

    #[test]
    fn single_thread_pool_never_spawns() {
        with_threads(1, || {
            let before = stats();
            let (a, b) = join(|| 1, || 2);
            assert_eq!((a, b), (1, 2));
            let d = stats().since(&before);
            assert_eq!(d.join_parallel, 0);
            assert_eq!(d.spawns, 0);
            assert!(d.join_inline >= 1);
        });
    }

    #[test]
    fn parallel_join_really_uses_another_thread() {
        with_threads(4, || {
            let main_id = std::thread::current().id();
            let before = stats();
            let (_, other_id) = join(|| (), || std::thread::current().id());
            let d = stats().since(&before);
            assert_eq!(d.join_parallel, 1, "expected the fork to spawn");
            assert_ne!(other_id, main_id);
        });
    }

    #[test]
    fn join_recursion_is_throttled_by_the_budget() {
        fn tree(depth: usize) -> usize {
            if depth == 0 {
                return 1;
            }
            let (a, b) = join(|| tree(depth - 1), || tree(depth - 1));
            a + b
        }
        with_threads(3, || {
            let before = stats();
            assert_eq!(tree(6), 64);
            let d = stats().since(&before);
            // 63 forks total: some spawned, the rest inlined — never more
            // concurrent workers than budgeted.
            assert_eq!(d.join_parallel + d.join_inline, 63);
            assert!(d.join_parallel >= 1);
            assert!(stats().peak_threads <= 16);
        });
    }

    #[test]
    fn for_each_chunk_visits_every_item_exactly_once() {
        for threads in [1, 2, 5] {
            with_threads(threads, || {
                let n = 23;
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..n).collect();
                for_each_chunk(items, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "item {i} at {threads} threads"
                    );
                }
            });
        }
    }

    #[test]
    fn budget_is_released_after_use() {
        with_threads(2, || {
            for _ in 0..8 {
                join(|| (), || ());
            }
            assert_eq!(BORROWED.load(Ordering::Relaxed), 0);
        });
    }

    #[test]
    fn configure_zero_restores_auto_sizing() {
        let _g = serialized();
        configure(7);
        assert_eq!(current_num_threads(), 7);
        configure(0);
        assert!(current_num_threads() >= 1);
    }
}
