//! Offline, dependency-free stand-in for the slice of the `rayon` API the
//! workspace uses: `par_iter_mut()` with `for_each`, `map(..).collect()`
//! and `zip(..).for_each`, plus the worker-count switch.
//!
//! The build environment cannot reach a crates registry, so the workspace
//! path-redirects `rayon` here. Unlike the earlier sequential shim, this
//! version executes on a real worker pool built from `std::thread::scope`:
//! each combinator splits its input into chunks on a **worker-count
//! independent grid**, workers claim chunks dynamically through an atomic
//! cursor, and results are reassembled in chunk order. That makes every
//! combinator's output — element order included — identical for any worker
//! count, which is what lets the simulator promise byte-identical reports
//! under 1, 2, 4 or N threads.
//!
//! Determinism contract:
//!
//! * `map(..).collect()` gathers per-chunk result vectors and concatenates
//!   them in chunk-index order, so output order equals input order.
//! * `for_each` closures receive disjoint items; the *side effects inside
//!   one item* are single-threaded (each item is visited exactly once, by
//!   exactly one worker). Cross-item effects must be order-independent,
//!   exactly as real rayon requires.
//! * The chunk grid depends only on the input length, never on the
//!   worker count. The inline path taken when only one worker is
//!   available visits items in the same left-to-right order.
//!
//! Nested parallelism is flattened: a `par_*` call made from inside a pool
//! worker runs sequentially on that worker (a thread-local guard), so a
//! kernel that is parallel at top level does not explode the thread count
//! when invoked from inside a per-rank closure.
//!
//! The worker count defaults to `RAYON_NUM_THREADS` or, failing that, the
//! machine's available parallelism. [`set_num_threads`] overrides it at
//! runtime; with one worker every combinator degenerates to the plain
//! sequential loop with zero threading overhead.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global worker count. `0` means "not initialised yet" — the first query
/// resolves the default lazily so `RAYON_NUM_THREADS` set by a test runner
/// before first use is honoured.
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the number of chunks a single combinator splits into.
/// Fixed (not derived from the worker count) so that chunk boundaries are
/// identical no matter how many workers execute them.
const MAX_TOTAL_CHUNKS: usize = 64;

fn default_workers() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Number of worker threads parallel combinators may use (including the
/// calling thread, which always participates).
pub fn current_num_threads() -> usize {
    let w = WORKERS.load(Ordering::Acquire);
    if w != 0 {
        return w;
    }
    let n = default_workers();
    // Racy initialisation is fine: every racer computes the same default.
    let _ = WORKERS.compare_exchange(0, n, Ordering::AcqRel, Ordering::Acquire);
    WORKERS.load(Ordering::Acquire)
}

/// Set the global worker count (clamped to at least 1): the bench
/// harness's `--workers N` flag.
pub fn set_num_threads(n: usize) {
    WORKERS.store(n.max(1), Ordering::Release);
}

thread_local! {
    /// True while this thread is executing a chunk on behalf of a parallel
    /// combinator. Nested `par_*` calls check it and run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// RAII flag flip for [`IN_POOL`]; restores the previous value so the
/// calling thread (which participates in its own pool) is unwound
/// correctly even on panic.
struct PoolGuard {
    prev: bool,
}

impl PoolGuard {
    fn enter() -> PoolGuard {
        PoolGuard { prev: IN_POOL.with(|c| c.replace(true)) }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|c| c.set(prev));
    }
}

/// Decide the execution shape for `len` items: `None` → run inline on the
/// caller (single worker or nested call); `Some((threads, chunk))` → split
/// into `chunk`-sized pieces claimed dynamically by `threads` workers. The
/// chunk size is a function of `len` only — never of the worker count.
fn plan(len: usize) -> Option<(usize, usize)> {
    if len < 2 || in_pool() {
        return None;
    }
    let threads = current_num_threads().min(len);
    if threads < 2 {
        return None;
    }
    let chunk = len.div_ceil(MAX_TOTAL_CHUNKS);
    let n_chunks = len.div_ceil(chunk);
    Some((threads.min(n_chunks), chunk))
}

/// Run `worker` on `threads` threads (the caller is one of them) inside a
/// scope, with the nested-parallelism guard set on each. Panics in any
/// worker propagate to the caller when the scope joins.
fn run_on_workers<F: Fn() + Sync>(threads: usize, worker: F) {
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| {
                let _g = PoolGuard::enter();
                worker();
            });
        }
        let _g = PoolGuard::enter();
        worker();
    });
}

/// Dynamic chunk scheduler without results: workers claim chunk indices
/// from an atomic cursor until exhausted.
fn run_chunks<F: Fn(usize) + Sync>(threads: usize, n_chunks: usize, process: F) {
    let next = AtomicUsize::new(0);
    run_on_workers(threads, || loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        process(c);
    });
}

/// Dynamic chunk scheduler with ordered gather: `process(c)` returns chunk
/// `c`'s results, which are handed back concatenated in chunk order
/// regardless of which worker ran which chunk.
fn run_chunks_ordered<R, F>(threads: usize, n_chunks: usize, process: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> Vec<R> + Sync,
{
    let slots: Vec<Mutex<Vec<R>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();
    run_chunks(threads, n_chunks, |c| {
        let r = process(c);
        *slots[c].lock().expect("result slot poisoned") = r;
    });
    let mut out = Vec::new();
    for slot in slots {
        out.extend(slot.into_inner().expect("result slot poisoned"));
    }
    out
}

/// Split an owned vector into chunks of `chunk` elements, preserving
/// order. `v` must be non-empty.
fn split_vec<T>(v: Vec<T>, chunk: usize) -> Vec<Vec<T>> {
    let mut parts = Vec::with_capacity(v.len().div_ceil(chunk));
    let mut rest = v;
    loop {
        if rest.len() <= chunk {
            parts.push(rest);
            return parts;
        }
        let tail = rest.split_off(chunk);
        parts.push(rest);
        rest = tail;
    }
}

/// Parallel iterator over `&mut [T]` (from `par_iter_mut()`).
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Apply `f` to every item. Items are disjoint `&mut T`s, so each is
    /// mutated by exactly one worker.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Send + Sync,
    {
        let len = self.slice.len();
        match plan(len) {
            None => {
                for x in self.slice.iter_mut() {
                    f(x);
                }
            }
            Some((threads, chunk)) => {
                let parts: Vec<Mutex<Option<&mut [T]>>> =
                    self.slice.chunks_mut(chunk).map(|c| Mutex::new(Some(c))).collect();
                let f = &f;
                run_chunks(threads, parts.len(), |c| {
                    let part = parts[c]
                        .lock()
                        .expect("chunk slot poisoned")
                        .take()
                        .expect("chunk claimed exactly once");
                    for x in part {
                        f(x);
                    }
                });
            }
        }
    }

    /// Map every item through `f`; finish with [`ParMapMut::collect`].
    pub fn map<R, F>(self, f: F) -> ParMapMut<'a, T, F>
    where
        F: Fn(&mut T) -> R + Send + Sync,
        R: Send,
    {
        ParMapMut { slice: self.slice, f }
    }

    /// Pair the `i`-th `&mut T` with the `i`-th element of `other`
    /// (stopping at the shorter), as rayon's indexed `zip` does.
    pub fn zip<U: Send>(self, other: Vec<U>) -> ParZipMut<'a, T, U> {
        ParZipMut { slice: self.slice, other }
    }
}

/// Mapped parallel iterator over `&mut [T]`.
pub struct ParMapMut<'a, T, F> {
    slice: &'a mut [T],
    f: F,
}

impl<'a, T: Send, F> ParMapMut<'a, T, F> {
    /// Execute the map and collect results in input order.
    pub fn collect<R, C>(self) -> C
    where
        F: Fn(&mut T) -> R + Send + Sync,
        R: Send,
        C: From<Vec<R>>,
    {
        let len = self.slice.len();
        let out = match plan(len) {
            None => self.slice.iter_mut().map(&self.f).collect(),
            Some((threads, chunk)) => {
                let parts: Vec<Mutex<Option<&mut [T]>>> =
                    self.slice.chunks_mut(chunk).map(|c| Mutex::new(Some(c))).collect();
                let f = &self.f;
                run_chunks_ordered(threads, parts.len(), |c| {
                    let part = parts[c]
                        .lock()
                        .expect("chunk slot poisoned")
                        .take()
                        .expect("chunk claimed exactly once");
                    part.iter_mut().map(f).collect()
                })
            }
        };
        C::from(out)
    }
}

/// Zipped parallel iterator: disjoint `&mut T`s paired with owned `U`s.
pub struct ParZipMut<'a, T, U> {
    slice: &'a mut [T],
    other: Vec<U>,
}

impl<'a, T: Send, U: Send> ParZipMut<'a, T, U> {
    /// Apply `f` to every `(item, paired value)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((&mut T, U)) + Send + Sync,
    {
        let ParZipMut { slice, mut other } = self;
        let n = slice.len().min(other.len());
        other.truncate(n);
        let slice = &mut slice[..n];
        match plan(n) {
            None => {
                for pair in slice.iter_mut().zip(other) {
                    f(pair);
                }
            }
            Some((threads, chunk)) => {
                // One claim-once slot per chunk: a mutable sub-slice
                // paired with its split of the zipped values.
                type ZipSlot<'s, T, U> = Mutex<Option<(&'s mut [T], Vec<U>)>>;
                let parts: Vec<ZipSlot<'_, T, U>> = slice
                    .chunks_mut(chunk)
                    .zip(split_vec(other, chunk))
                    .map(|pair| Mutex::new(Some(pair)))
                    .collect();
                let f = &f;
                run_chunks(threads, parts.len(), |c| {
                    let (part, vals) = parts[c]
                        .lock()
                        .expect("chunk slot poisoned")
                        .take()
                        .expect("chunk claimed exactly once");
                    for pair in part.iter_mut().zip(vals) {
                        f(pair);
                    }
                });
            }
        }
    }
}

/// The rayon prelude: the parallel-iterator entry-point trait.
pub mod prelude {
    use super::ParIterMut;

    /// `par_iter_mut()` — iterate by exclusive reference.
    pub trait IntoParallelRefMutIterator<'data> {
        /// Iterator type produced.
        type Iter;
        /// Item type produced.
        type Item: Send + 'data;
        /// Iterate over `&mut self`.
        fn par_iter_mut(&'data mut self) -> Self::Iter;
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
        type Iter = ParIterMut<'data, T>;
        type Item = &'data mut T;
        fn par_iter_mut(&'data mut self) -> Self::Iter {
            ParIterMut { slice: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    /// Serialises tests that pin the global worker count; restores the
    /// previous count on drop.
    struct Workers {
        prev: usize,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl Workers {
        fn pin(n: usize) -> Workers {
            static LOCK: Mutex<()> = Mutex::new(());
            let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let prev = current_num_threads();
            set_num_threads(n);
            Workers { prev, _lock: lock }
        }
    }

    impl Drop for Workers {
        fn drop(&mut self) {
            set_num_threads(self.prev);
        }
    }

    #[test]
    fn par_iter_mut_matches_sequential() {
        let mut v = vec![1u32, 2, 3];
        v.par_iter_mut().for_each(|x| *x *= 10);
        assert_eq!(v, vec![10, 20, 30]);
        let doubled: Vec<u32> = v.par_iter_mut().map(|x| *x * 2).collect();
        assert_eq!(doubled, vec![20, 40, 60]);
    }

    #[test]
    fn results_identical_for_any_worker_count() {
        let input: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, 4, 8] {
            let _w = Workers::pin(workers);
            let mut v = input.clone();
            let got: Vec<u64> = v.par_iter_mut().map(|x| *x * *x + 1).collect();
            assert_eq!(got, expect, "map order must not depend on {workers} workers");
            v.par_iter_mut().for_each(|x| *x = x.wrapping_mul(3));
            assert!(v.iter().zip(&input).all(|(a, b)| *a == b.wrapping_mul(3)));
        }
    }

    #[test]
    fn zip_pairs_by_index() {
        let _w = Workers::pin(4);
        let mut v: Vec<u64> = (0..500).collect();
        let addends: Vec<u64> = (0..500).map(|i| i * 10).collect();
        v.par_iter_mut().zip(addends).for_each(|(x, a)| *x += a);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 11);
        }
    }

    #[test]
    fn zip_stops_at_shorter_side() {
        let _w = Workers::pin(2);
        let mut v = [0u32; 10];
        v.par_iter_mut().zip(vec![1u32; 4]).for_each(|(x, a)| *x += a);
        assert_eq!(v.iter().sum::<u32>(), 4);
    }

    #[test]
    fn work_actually_runs_on_multiple_threads() {
        let _w = Workers::pin(4);
        // 64 items → 64 unit chunks → 4 workers. Every closure waits on a
        // 4-way barrier, so the test deadlocks (and times out) unless four
        // distinct threads really participate.
        let barrier = Barrier::new(4);
        let ids = Mutex::new(HashSet::new());
        let mut items: Vec<u32> = (0..64).collect();
        items.par_iter_mut().for_each(|_| {
            barrier.wait();
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert_eq!(ids.lock().unwrap().len(), 4);
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        let _w = Workers::pin(4);
        let mut outer: Vec<u32> = (0..8).collect();
        let ok = Mutex::new(Vec::new());
        outer.par_iter_mut().for_each(|i| {
            // Inside a pool worker: nested call must not spawn and must
            // still produce ordered results.
            let inner: Vec<u32> =
                (0..100u32).collect::<Vec<_>>().par_iter_mut().map(|x| *x + *i).collect();
            let good = inner.iter().enumerate().all(|(k, v)| *v == k as u32 + *i);
            ok.lock().unwrap().push(good);
        });
        let ok = ok.into_inner().unwrap();
        assert_eq!(ok.len(), 8);
        assert!(ok.iter().all(|b| *b));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _w = Workers::pin(4);
        let mut empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter_mut().map(|x| *x).collect();
        assert!(out.is_empty());
        let mut one = vec![41u32];
        one.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(one, vec![42]);
    }
}
