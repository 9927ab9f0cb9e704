//! Counting global allocator: every heap allocation of the benchmark
//! process (harness and program alike) passes through here, so
//! `heap_peak_mb` and the `host.*` allocation metrics are measured from
//! outside the layers, like everything else.
//!
//! The counters are statistics that publish no other data, hence
//! `Relaxed`. Worker threads of the `rayon` shim allocate concurrently;
//! `live`/`peak` are therefore exact per operation but `peak` may miss a
//! maximum that two threads produce together by at most one allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by `main.rs`.
pub struct Counting;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // Forwarded (not defaulted) so a 512 MiB arena stays lazily zeroed
    // pages instead of an eager memset.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A reading of the monotone counters; subtract two for a window or span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl Counts {
    /// Counters right now.
    pub fn now() -> Counts {
        Counts { allocs: ALLOCS.load(Relaxed), bytes: BYTES.load(Relaxed) }
    }

    /// Allocations and bytes since `earlier`.
    pub fn since(earlier: Counts) -> Counts {
        let now = Counts::now();
        Counts { allocs: now.allocs - earlier.allocs, bytes: now.bytes - earlier.bytes }
    }
}

/// Bytes live on the heap right now.
#[cfg(test)]
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Start a peak window: the peak restarts from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live size since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cargo test` runs tests on parallel threads that allocate too, so
    /// the exact count is taken as the minimum over repeated trials: other
    /// threads can only add to a trial, never subtract.
    fn min_over_trials(mut trial: impl FnMut() -> Counts) -> Counts {
        (0..50).map(|_| trial()).min_by_key(|c| (c.allocs, c.bytes)).expect("50 trials")
    }

    #[test]
    fn known_vec_churn_is_counted_exactly() {
        let got = min_over_trials(|| {
            let before = Counts::now();
            for _ in 0..100 {
                let v: Vec<u8> = Vec::with_capacity(1000);
                std::hint::black_box(&v);
            }
            // One allocation of 16 bytes, then a realloc to 64.
            let mut w: Vec<u64> = Vec::with_capacity(2);
            w.extend([1, 2]);
            w.reserve_exact(6);
            std::hint::black_box(&w);
            Counts::since(before)
        });
        assert_eq!(got, Counts { allocs: 102, bytes: 100 * 1000 + 16 + 64 });
    }

    #[test]
    fn peak_follows_live_within_a_window() {
        // Other test threads allocate and reset the peak meanwhile, so
        // only lower bounds that hold while `big` is live are asserted.
        reset_peak();
        let big: Vec<u8> = vec![1; 8 << 20];
        std::hint::black_box(&big);
        assert!(live_bytes() >= 8 << 20);
        assert!(peak_bytes() >= 8 << 20, "the 8 MiB vector is live inside the window");
    }
}
