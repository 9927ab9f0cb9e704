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
//! into the [`RegionManager`] after every allocation. Each grower reads
//! the opposing edge as its ceiling before it allocates (the octree
//! allocator's `set_limit(live_rt_floor())`, the rt log heap's
//! `set_limit(live_bump())`), which is where the "never cross into the
//! other region" guarantee is enforced.

use crate::arena::HEADER_SIZE;

/// The four typed regions of an NVBM device, in address order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// The device header: magic, epoch, root slots, allocator hints.
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

/// Owner of the two live edges between the octree and rt-heap regions.
/// Volatile: rebuilt from the persisted header hints on restore, then
/// corrected by each subsystem's recovery.
#[derive(Debug, Clone)]
pub struct RegionManager {
    capacity: u64,
    /// Highest offset the rt heap may occupy.
    heap_top: u64,
    /// Live top of the octree allocator's territory (exclusive).
    octree_edge: u64,
    /// Live bottom of the rt heap's territory (inclusive).
    rt_floor: u64,
}

impl RegionManager {
    /// A manager for a virgin device with its flight-recorder ring at
    /// `rec_base` (0 = no ring): octree edge at the header top, rt floor
    /// at the heap top (no rt traffic yet).
    pub fn new(capacity: u64, rec_base: u64) -> Self {
        let heap_top = if rec_base == 0 { capacity } else { rec_base };
        RegionManager { capacity, heap_top, octree_edge: HEADER_SIZE, rt_floor: heap_top }
    }

    /// A manager over recovered live bounds (e.g. the persisted header
    /// hints of a crash image). Bounds are clamped like the publish
    /// methods clamp.
    pub fn from_bounds(capacity: u64, rec_base: u64, octree_edge: u64, rt_floor: u64) -> Self {
        let mut m = RegionManager::new(capacity, rec_base);
        m.publish_octree_edge(octree_edge);
        m.publish_rt_floor(rt_floor);
        m
    }

    /// Highest offset the rt heap may occupy: the recorder base when a
    /// ring is carved, the device capacity otherwise.
    pub fn heap_top(&self) -> u64 {
        self.heap_top
    }

    /// The octree allocator's live edge (exclusive top of its territory).
    pub fn octree_edge(&self) -> u64 {
        self.octree_edge
    }

    /// The rt heap's live floor (inclusive bottom of its territory).
    pub fn rt_floor(&self) -> u64 {
        self.rt_floor
    }

    /// Publish the octree allocator's live edge (clamped into the
    /// device); returns the value actually recorded.
    pub fn publish_octree_edge(&mut self, edge: u64) -> u64 {
        self.octree_edge = edge.clamp(HEADER_SIZE, self.capacity);
        self.octree_edge
    }

    /// Publish the rt heap's live floor (clamped into the device);
    /// returns the value actually recorded.
    pub fn publish_rt_floor(&mut self, floor: u64) -> u64 {
        self.rt_floor = floor.clamp(HEADER_SIZE, self.capacity);
        self.rt_floor
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const REC_BASE: u64 = (1 << 20) - (1 << 14);

    fn mgr() -> RegionManager {
        // 1 MiB device with a 16 KiB recorder ring at the top.
        RegionManager::new(1 << 20, REC_BASE)
    }

    #[test]
    fn virgin_geometry() {
        let m = mgr();
        assert_eq!(m.octree_edge(), HEADER_SIZE);
        assert_eq!(m.rt_floor(), m.heap_top());
        assert_eq!(m.heap_top(), REC_BASE);
        let no_ring = RegionManager::new(4096, 0);
        assert_eq!(no_ring.heap_top(), 4096);
        assert_eq!(no_ring.rt_floor(), 4096);
    }

    #[test]
    fn classify_matches_address_order() {
        let mut m = mgr();
        m.publish_octree_edge(8192);
        m.publish_rt_floor(m.heap_top() - 4096);
        let classify = |off| classify_at(off, REC_BASE, m.rt_floor());
        assert_eq!(classify(0), RegionKind::RootTable);
        assert_eq!(classify(HEADER_SIZE), RegionKind::Octree);
        assert_eq!(classify(8192), RegionKind::Octree, "free gap reads as octree");
        assert_eq!(classify(m.rt_floor()), RegionKind::RtHeap);
        assert_eq!(classify(REC_BASE), RegionKind::Recorder);
    }

    #[test]
    fn publish_clamps_into_device() {
        let mut m = mgr();
        assert_eq!(m.publish_octree_edge(0), HEADER_SIZE);
        assert_eq!(m.publish_octree_edge(u64::MAX), 1 << 20);
        assert_eq!(m.publish_rt_floor(0), HEADER_SIZE);
        assert_eq!(m.publish_rt_floor(u64::MAX), 1 << 20);
    }

    #[test]
    fn from_bounds_recovers_edges() {
        let m = RegionManager::from_bounds(1 << 20, 0, 4096, 65536);
        assert_eq!(m.octree_edge(), 4096);
        assert_eq!(m.rt_floor(), 65536);
        assert_eq!(m.heap_top(), 1 << 20);
    }
}
