//! Virtual time.
//!
//! The paper emulates NVBM latency with RDTSCP spin loops; spinning makes
//! wall-clock measurements real but non-deterministic and slow. We instead
//! charge modeled latencies onto a per-rank [`VirtualClock`]. Experiment
//! harnesses report virtual seconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic virtual clock, advanced by device/cost models.
///
/// One clock per simulated rank; the simulated execution time of a
/// parallel phase is the max over rank clocks (computed by the `cluster`
/// crate).
///
/// The instant lives behind a shared atomic: `clone()` yields another
/// handle onto the *same* clock, which is what lets RAII tracing spans
/// (`pmoctree-obsv`) read the time at drop without borrowing the arena
/// that owns the clock.
///
/// ### Ownership and ordering under the worker pool
///
/// Ranks execute on a real thread pool (the `rayon` shim), so clock
/// handles genuinely cross threads: a rank — and every clock handle
/// cloned into its spans — is advanced by whichever worker currently
/// runs that rank, and the coordinator reads all rank clocks at barriers.
/// Determinism comes from the ownership discipline, not from luck:
/// *during a parallel phase exactly one worker touches a given rank's
/// clock* (ranks are disjoint `&mut` items), and the coordinator only
/// reads after the pool's scope join, which is a full happens-before
/// edge. The atomics therefore never race on the same instant; they are
/// still upgraded from `Relaxed` to acquire/release orderings so that a
/// clock value published by one worker is a correct synchronisation
/// point even for code that inspects clocks mid-phase (e.g. span guards
/// dropped on another worker after a rank migrates between chunks), and
/// so the single-writer argument is not load-bearing for memory safety.
#[derive(Clone)]
pub struct VirtualClock {
    now_ns: Arc<AtomicU64>,
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock { now_ns: Arc::new(AtomicU64::new(0)) }
    }
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualClock").field("now_ns", &self.now_ns()).finish()
    }
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 * 1e-9
    }

    /// Advance the clock by `ns` nanoseconds.
    #[inline]
    pub fn advance(&self, ns: u64) {
        self.now_ns.fetch_add(ns, Ordering::AcqRel);
    }

    /// Advance to at least `t_ns` (used to synchronize ranks at barriers).
    #[inline]
    pub fn advance_to(&self, t_ns: u64) {
        self.now_ns.fetch_max(t_ns, Ordering::AcqRel);
    }

    /// Reset to zero (new experiment).
    pub fn reset(&self) {
        self.now_ns.store(0, Ordering::Release);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(150);
        c.advance(100);
        assert_eq!(c.now_ns(), 250);
        assert!((c.now_secs() - 250e-9).abs() < 1e-18);
    }

    #[test]
    fn advance_to_is_max() {
        let c = VirtualClock::new();
        c.advance(500);
        c.advance_to(300);
        assert_eq!(c.now_ns(), 500);
        c.advance_to(800);
        assert_eq!(c.now_ns(), 800);
    }

    #[test]
    fn clone_is_a_shared_handle() {
        let c = VirtualClock::new();
        let view = c.clone();
        c.advance(150);
        assert_eq!(view.now_ns(), 150, "clones observe the same instant");
        view.advance(50);
        assert_eq!(c.now_ns(), 200);
    }

    #[test]
    fn concurrent_advance_totals_exactly() {
        // `advance` is a single atomic RMW, so even when handles are
        // hammered from many threads (stronger than the pool's
        // one-worker-per-rank discipline requires) no increment may be
        // lost: the final instant equals the deterministic total.
        const THREADS: u64 = 8;
        const ITERS: u64 = 10_000;
        const STEP: u64 = 3;
        let c = VirtualClock::new();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let h = c.clone();
                s.spawn(move || {
                    for _ in 0..ITERS {
                        h.advance(STEP);
                    }
                });
            }
        });
        assert_eq!(c.now_ns(), THREADS * ITERS * STEP);
    }

    #[test]
    fn concurrent_advance_to_converges_to_max() {
        // `advance_to` is fetch_max: whatever the interleaving, the clock
        // must end at the maximum requested instant.
        const THREADS: u64 = 8;
        const ITERS: u64 = 5_000;
        let c = VirtualClock::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = c.clone();
                s.spawn(move || {
                    for i in 0..ITERS {
                        h.advance_to(t * ITERS + i);
                    }
                });
            }
        });
        assert_eq!(c.now_ns(), (THREADS - 1) * ITERS + (ITERS - 1));
    }
}
