//! Emulated non-volatile byte-addressable memory (NVBM).
//!
//! The paper evaluates PM-octree on DRAM-emulated NVBM: every NVBM read or
//! write is delayed per Table 2 (100 ns read / 150 ns write per cacheline
//! vs 60/60 ns for DRAM). This crate reproduces that emulator with a
//! deterministic twist — latencies are charged to a per-device
//! [`VirtualClock`] instead of burned in spin loops.
//!
//! Beyond timing, the crate models what actually makes persistent-memory
//! programming hard and what PM-octree is designed to survive:
//!
//! * a bounded **dirty-line cache** between the CPU and the media, so
//!   stores become persistent in an order the program did not choose;
//! * [`NvbmArena::crash`] — drop or randomly commit the dirty lines, then
//!   let recovery code prove it can live with the result;
//! * a [`PmemAllocator`] whose free stack is volatile and rebuilt from
//!   the GC mark phase after a crash (no allocator logging);
//! * persistent **root slots** in a device header written with atomic
//!   8-byte flushed stores (`ADDR(V_i)` / `ADDR(V_{i-1})` in the paper);
//! * wear and access statistics ([`MemStats`]) for the write-reduction
//!   experiments.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod alloc;
pub mod arena;
pub mod clock;
pub mod failplan;
mod lines;
pub mod model;
pub mod pins;
pub mod recorder;
pub mod region;
pub mod stats;

// The observability layer: re-exported whole so downstream crates reach
// the exporters (`nvbm::obsv::chrome`, …) without a separate dependency.
pub use pmoctree_obsv as obsv;

pub use alloc::{AllocLease, PmemAllocator};
pub use arena::{
    ArenaSnapshot, CrashMode, NvbmArena, POffset, ShardDelta, ShardWriter, HEADER_SIZE, ROOT_SLOTS,
};
pub use clock::VirtualClock;
pub use failplan::{CrashCapture, CrashView, FailHook, FailPlan};
pub use model::{BlockDeviceModel, DeviceModel, MemLatency, NetworkModel, CACHELINE, PAGE};
pub use pins::{EpochPins, PinGuard};
pub use pmoctree_obsv::{Event, EventKind, Metrics, Span, Tracer};
pub use recorder::{RecEntry, RecKind, RecorderDump, REC_LABEL_MAX};
pub use region::{RegionKind, RegionManager};
pub use stats::{MemStats, NamedBytes, TierStats, TraversalStats, WearReport, WEAR_BLOCK};

/// Compile-time `Send`/`Sync` audit for everything a rank carries across
/// worker threads now that the `rayon` shim runs a real pool. A rank's
/// arena (with its embedded fail plan, stats, tracer and clock) moves
/// between workers as chunks are claimed; clock and tracer handles are
/// additionally *shared* (cloned into span guards), so they must be
/// `Sync` too. If a future field breaks one of these bounds, the build
/// fails here instead of deep inside a `thread::scope` bound error.
#[allow(dead_code)]
mod send_audit {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    fn audit() {
        assert_send::<crate::NvbmArena>();
        assert_send::<crate::FailPlan>();
        assert_send::<crate::MemStats>();
        assert_send::<crate::stats::TraversalStats>();
        assert_send::<crate::VirtualClock>();
        assert_sync::<crate::VirtualClock>();
        assert_send::<crate::Tracer>();
        assert_sync::<crate::Tracer>();
        // Domain-parallel sweeps: workers share one snapshot and each
        // sends its finished delta back to the serial join point.
        assert_sync::<crate::ArenaSnapshot<'static>>();
        assert_send::<crate::ShardWriter<'static>>();
        assert_send::<crate::ShardDelta>();
        assert_send::<crate::AllocLease>();
    }
}
