//! The NVBM address space as four typed regions in a fixed address
//! order —
//!
//! ```text
//! 0 ──────── HEADER_SIZE ───── octree_edge ──── rt_floor ──── rec_base ──── capacity
//! │ root table │   octree ↑    │    free gap    │  rt heap   │  recorder  │
//! ```
//!
//! The root-table and recorder spans are fixed at format time; the octree
//! and rt-heap regions meet at two *live edges* that their owners publish
//! into the arena after every allocation
//! ([`NvbmArena::publish_bump`](crate::arena::NvbmArena::publish_bump),
//! [`NvbmArena::publish_rt_floor`](crate::arena::NvbmArena::publish_rt_floor)).
//! Each grower reads the opposing edge as its ceiling before it allocates
//! (the octree allocator's `set_limit(live_rt_floor())`, the rt log
//! heap's `set_limit(live_bump())`), which is where the "never cross into
//! the other region" guarantee is enforced.

use crate::arena::HEADER_SIZE;

/// The four typed regions of an NVBM device, in address order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// The device header: magic, recorder descriptor, commit records.
    RootTable,
    /// The octree allocator's upward-growing territory.
    Octree,
    /// The `pm-rt` log heap, growing down from the recorder base (or the
    /// device top when no recorder ring is carved).
    RtHeap,
    /// The flight-recorder ring at the top of the device (absent on tiny
    /// devices).
    Recorder,
}

/// Classify a byte offset into a region given the two boundary hints —
/// the classification rule of the [`crate::stats::MemStats`] wear
/// attribution (`rec_base == 0` means "no recorder ring", `rt_floor == 0`
/// means "rt heap never used").
pub fn classify_at(offset: u64, rec_base: u64, rt_floor: u64) -> RegionKind {
    if offset < HEADER_SIZE {
        RegionKind::RootTable
    } else if rec_base != 0 && offset >= rec_base {
        RegionKind::Recorder
    } else if rt_floor != 0 && offset >= rt_floor {
        RegionKind::RtHeap
    } else {
        RegionKind::Octree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matches_address_order() {
        // 1 MiB device with a 16 KiB recorder ring at the top and the rt
        // heap 4 KiB deep under it.
        const REC_BASE: u64 = (1 << 20) - (1 << 14);
        let rt_floor = REC_BASE - 4096;
        let classify = |off| classify_at(off, REC_BASE, rt_floor);
        assert_eq!(classify(0), RegionKind::RootTable);
        assert_eq!(classify(HEADER_SIZE), RegionKind::Octree);
        assert_eq!(classify(8192), RegionKind::Octree, "free gap reads as octree");
        assert_eq!(classify(rt_floor), RegionKind::RtHeap);
        assert_eq!(classify(REC_BASE), RegionKind::Recorder);
    }
}
